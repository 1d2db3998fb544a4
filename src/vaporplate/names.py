"""Names of the bundled scenario presets and of the two beam geometries,
and the largest point count.

Kept free of dependencies: the command-line parser offers them as choices
and bounds for every command, before any model module (or numpy) is loaded.
"""

PRESETS = ("fig1-ideal", "fig7-full", "fig7-reduced15", "fig8-qwp",
           "two-level-oracle")

COUNTER = "counter_propagating"
CO = "co_propagating"

# Most detunings or velocity nodes a scenario or the command line may ask
# for; a larger count is a typo (1e5 x 1e5 cells would take weeks), not a
# sweep.
MAX_POINTS = 100_000
