"""Names shared by the stages and the command line, which reads them
without loading the stages (and numpy)."""

METHOD_SPIKE = "spike"
METHOD_CONTINUITY = "continuity"
METHODS = (METHOD_SPIKE, METHOD_CONTINUITY)

# cohort widths in months
WIDTH_3_MONTHS = 3
WIDTH_5_YEARS = 60

UNDERFULL_POLICIES = ("drop-month", "keep-all", "fail")
