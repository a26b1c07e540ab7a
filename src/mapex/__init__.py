"""mapex: abstract observed multi-agent policy behavior into a joint-state
transition model, then explain it with most-probable-path summaries and
query-based natural-language explanations."""

from .abstraction import (
    PolicyAbstraction,
    build_abstraction,
    load_abstraction,
    save_abstraction,
)
from .domain import (
    ActionPhrases,
    AgentId,
    AgentSpec,
    DomainDefinition,
    FeatureSchema,
    PredicateSpec,
    RelevanceEntry,
    RelevanceKnowledge,
    decode_agent_state,
    encode_agent_state,
    encode_joint_state,
    load_domain_file,
    save_domain_file,
    variable_index,
)
from .envs import domain_ids, get_domain, read_trace, simulate, write_trace
from .nlg import PhraseMap, format_dnf, render
from .query import (
    ConditionAnswer,
    LiteralDNF,
    Query,
    WhatAnswer,
    answer,
    answer_what,
    answer_when,
    answer_whynot,
    compatible,
    relevancy_filter,
)
from .summarize import (
    MostProbablePath,
    SummaryChart,
    most_probable_path,
    render_chart,
    summarize,
)

__version__ = "0.1.0"
