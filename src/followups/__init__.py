"""Coverage-based explanation mining for social-network influencers.

Given a social graph, an action log, and user/action attributes, rank
influencers by followup count and mine, per influencer, at most k
conjunctions of at least l predicates that together cover as many of their
followups as possible.
"""

from .errors import (
    ConfigError,
    FollowupsError,
    NotFoundError,
    ParseError,
    ResourceLimitError,
)
from .featurization import (
    AttributeTable,
    BinSpec,
    Predicate,
    PredicateCatalog,
    PredicateIndex,
    bin_numeric_attribute,
    build_predicate_index,
    load_attribute_table,
    predicate_popularity,
)
from .ingestion import (
    ActionLog,
    Cell,
    FollowupSet,
    SocialGraph,
    build_propagation_graph,
    compute_followup_set,
    followup_histogram,
    followup_sets,
    global_followup_stats,
    influencer_followup_counts,
    parse_action_log,
    parse_social_graph,
    rank_influencers,
)
from .miner import (
    Annotation,
    Explanation,
    ExplanationSet,
    annotate,
    coverage_of_explanation,
    coverage_of_set,
    eager_greedy,
    explanation_set_doc,
    explanation_set_json,
    mine_explanations,
)
from .baselines import (
    brute_force_oracle,
    exhaustive_baseline,
    most_popular_baseline,
    random_baseline,
)

__all__ = [
    "ActionLog",
    "Annotation",
    "AttributeTable",
    "BinSpec",
    "Cell",
    "ConfigError",
    "Explanation",
    "ExplanationSet",
    "FollowupSet",
    "FollowupsError",
    "NotFoundError",
    "ParseError",
    "Predicate",
    "PredicateCatalog",
    "PredicateIndex",
    "ResourceLimitError",
    "SocialGraph",
    "annotate",
    "bin_numeric_attribute",
    "brute_force_oracle",
    "build_predicate_index",
    "build_propagation_graph",
    "compute_followup_set",
    "coverage_of_explanation",
    "coverage_of_set",
    "eager_greedy",
    "exhaustive_baseline",
    "explanation_set_doc",
    "explanation_set_json",
    "followup_histogram",
    "followup_sets",
    "global_followup_stats",
    "influencer_followup_counts",
    "load_attribute_table",
    "mine_explanations",
    "most_popular_baseline",
    "parse_action_log",
    "parse_social_graph",
    "predicate_popularity",
    "random_baseline",
    "rank_influencers",
]

__version__ = "0.1.0"
