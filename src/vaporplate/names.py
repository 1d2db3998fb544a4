"""Names of the bundled scenario presets and of the two beam geometries.

Kept free of dependencies: the command-line parser offers them as choices
for every command, before any model module (or numpy) is loaded.
"""

PRESETS = ("fig1-ideal", "fig7-full", "fig7-reduced15", "fig8-qwp",
           "two-level-oracle")

COUNTER = "counter_propagating"
CO = "co_propagating"
