"""famespan: measure how long names stay famous in timestamped corpora.

The pipeline: read documents -> (optional) extract name mentions ->
volume-normalize by monthly subsampling -> aggregate per-name timelines
-> detect fame periods (spike and continuity) -> cohort statistics
(quantiles, power-law tails, bootstrap intervals) -> report files.
"""

__version__ = "0.1.0"
