"""Cross-source summarization of evolving news events.

The pipeline: ingest multi-source reports, extract typed messages, anchor
them in time, evaluate declarative synchronic/diachronic relation rules,
classify the event's evolution pattern, and render a relation-driven
summary.
"""

__version__ = "0.1.0"
