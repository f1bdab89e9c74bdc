"""Seeded synthetic dataset generator.

Real action-log datasets with demographics are not redistributable, so the
experiment harness ships a generator instead: a handful of hub users with
power-law follower and activity skew initiate actions that cascade to
followers whose latent genre tastes (correlated with gender) decide whether
they follow up. The planted structure makes conjunctive explanations like
(genre, gender, rating bin) genuinely predictive.

Output is a pure function of the config, including the seed; generated files
carry a version tag so datasets remain reproducible across runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

GENERATOR_VERSION = "synthgen-v1"

GENDERS = ("female", "male")
LENGTHS = ("short", "med", "long")
MATURITY = ("G", "PG", "PG-13", "R", "NC-17", "NR")


@dataclass(frozen=True)
class SynthConfig:
    users: int = 1000
    actions: int = 400
    seed: int = 0
    hubs: int = 12
    genres: int = 12
    directors: int = 45
    writers: int = 45
    follower_base: float = 0.03
    follower_skew: float = 0.4
    activity_skew: float = 0.25
    background_follows: int = 2
    cascade_base: float = 0.02
    cascade_boost: float = 0.55
    multi_genre_p: float = 0.2
    genre_skew: float = 0.25
    taste_bias: float = 3.0
    max_hops: int = 3
    noise_performers: int = 2

    def __post_init__(self):
        if self.users < 1:
            raise ConfigError(f"users must be >= 1, got {self.users}")
        if not 1 <= self.hubs <= self.users:
            raise ConfigError(f"hubs must be between 1 and users={self.users}, got {self.hubs}")
        if self.genres < 2:
            raise ConfigError(f"genres must be >= 2, got {self.genres}")
        if self.directors < 1 or self.writers < 1:
            raise ConfigError("directors and writers must be >= 1")


@dataclass
class SynthDataset:
    arcs: list[tuple[int, int]]
    log_rows: list[tuple[int, str, int]]
    user_attr_rows: list[tuple[int, str, str]]
    action_attr_rows: list[tuple[str, str, str]]


def _zipf_weights(n: int, skew: float) -> list[float]:
    return [(i + 1) ** -skew for i in range(n)]


def generate(config: SynthConfig) -> SynthDataset:
    rng = random.Random(config.seed)
    users = list(range(1, config.users + 1))
    hubs = users[: config.hubs]
    genres = [f"genre{i:02d}" for i in range(config.genres)]

    # --- user attributes and latent tastes -------------------------------
    gender: dict[int, str | None] = {}
    age: dict[int, int] = {}
    tastes: dict[int, set[str]] = {}
    genre_pop = _zipf_weights(config.genres, config.genre_skew)
    for u in users:
        gender[u] = None if rng.random() < 0.03 else rng.choice(GENDERS)
        age[u] = int(rng.triangular(14, 75, 26))
        bias = []
        for i in range(config.genres):
            if gender[u] == "female":
                b = config.taste_bias if i < config.genres * 0.6 else 1.0 / config.taste_bias
            elif gender[u] == "male":
                b = config.taste_bias if i >= config.genres * 0.4 else 1.0 / config.taste_bias
            else:
                b = 1.0
            bias.append(b * genre_pop[i])
        first = rng.choices(range(config.genres), weights=bias)[0]
        rest = [i for i in range(config.genres) if i != first]
        second = rng.choices(rest, weights=[bias[i] for i in rest])[0]
        tastes[u] = {genres[first], genres[second]}

    # --- follow arcs: arc (u, v) means v follows u ------------------------
    followers: dict[int, set[int]] = {u: set() for u in users}
    for rank, hub in enumerate(hubs, start=1):
        n_foll = max(5, int(config.users * config.follower_base * rank ** -config.follower_skew))
        pool = [u for u in users if u != hub]
        for v in rng.sample(pool, min(n_foll, len(pool))):
            followers[hub].add(v)
    for hub in hubs:
        # hubs follow a couple of other hubs, enabling multi-hop cascades
        others = [h for h in hubs if h != hub]
        for followed in rng.sample(others, min(2, len(others))):
            followers[followed].add(hub)
    for u in users:
        for _ in range(config.background_follows):
            w = rng.choice(users)
            if w != u:
                followers[w].add(u)

    # --- actions: attributes, initiator, cascade --------------------------
    action_attr_rows: list[tuple[str, str, str]] = []
    log_rows: list[tuple[int, str, int]] = []
    hub_activity = _zipf_weights(config.hubs, config.activity_skew)
    for idx in range(config.actions):
        action = f"m{idx:05d}"
        primary = genres[rng.choices(range(config.genres), weights=genre_pop)[0]]
        action_genres = [primary]
        if rng.random() < config.multi_genre_p:
            extra = rng.choice([g for g in genres if g != primary])
            action_genres.append(extra)
        year = 1985 + int(30 * rng.random() ** 0.7)
        rating = round(min(10.0, max(1.0, rng.gauss(6.5, 1.5))), 1)
        length = rng.choices(LENGTHS, weights=(0.25, 0.5, 0.25))[0]
        maturity = rng.choices(MATURITY, weights=(4, 10, 18, 52, 4, 12))[0]
        director = f"d{rng.randrange(config.directors) + 1:03d}"
        writer = f"w{rng.randrange(config.writers) + 1:03d}"
        for g in action_genres:
            action_attr_rows.append((action, "genre", g))
        action_attr_rows.append((action, "year", str(year)))
        action_attr_rows.append((action, "rating", str(rating)))
        action_attr_rows.append((action, "length", length))
        action_attr_rows.append((action, "maturity", maturity))
        action_attr_rows.append((action, "director", director))
        action_attr_rows.append((action, "writer", writer))

        initiator = hubs[rng.choices(range(config.hubs), weights=hub_activity)[0]]
        performed: dict[int, int] = {initiator: 0}
        frontier: list[tuple[int, int, int]] = [(initiator, 0, 0)]
        while frontier:
            u, t, hops = frontier.pop(0)
            if hops >= config.max_hops:
                continue
            for v in sorted(followers[u]):
                if v in performed:
                    continue
                match = bool(tastes[v] & set(action_genres))
                p = config.cascade_boost if match else config.cascade_base
                if rng.random() < p:
                    tv = t + rng.randint(1, 4)
                    performed[v] = tv
                    frontier.append((v, tv, hops + 1))
        for _ in range(config.noise_performers):
            v = rng.choice(users)
            if v not in performed:
                performed[v] = rng.randint(0, 40)
        for v, t in sorted(performed.items(), key=lambda it: (it[1], it[0])):
            log_rows.append((v, action, t))

    user_attr_rows: list[tuple[int, str, str]] = []
    for u in users:
        if gender[u] is not None:
            user_attr_rows.append((u, "gender", gender[u]))
        user_attr_rows.append((u, "age", str(age[u])))

    arcs = sorted((u, v) for u, vs in followers.items() for v in vs)
    return SynthDataset(arcs, log_rows, user_attr_rows, action_attr_rows)


def write_dataset(config: SynthConfig, out_dir: str | Path) -> dict[str, Path]:
    """Generate and write graph.tsv, actions.tsv, users.attrs.tsv and
    actions.attrs.tsv under `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = generate(config)
    stamp = (
        f"# {GENERATOR_VERSION} seed={config.seed} users={config.users} "
        f"actions={config.actions} hubs={config.hubs}\n"
    )
    paths = {
        "graph": out / "graph.tsv",
        "actions": out / "actions.tsv",
        "user_attrs": out / "users.attrs.tsv",
        "action_attrs": out / "actions.attrs.tsv",
    }
    with paths["graph"].open("w", encoding="utf-8") as fh:
        fh.write(stamp)
        for u, v in data.arcs:
            fh.write(f"{u}\t{v}\n")
    with paths["actions"].open("w", encoding="utf-8") as fh:
        fh.write(stamp)
        for u, a, t in data.log_rows:
            fh.write(f"{u}\t{a}\t{t}\n")
    with paths["user_attrs"].open("w", encoding="utf-8") as fh:
        fh.write(stamp)
        fh.write("#numeric: age\n")
        for u, attr, value in data.user_attr_rows:
            fh.write(f"{u}\t{attr}\t{value}\n")
    with paths["action_attrs"].open("w", encoding="utf-8") as fh:
        fh.write(stamp)
        fh.write("#numeric: year,rating\n")
        for a, attr, value in data.action_attr_rows:
            fh.write(f"{a}\t{attr}\t{value}\n")
    return paths
