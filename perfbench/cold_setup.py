"""One cold set-up in a fresh interpreter: import the package, load fig7-full
twice (cold, then warm) and build its sweep spec.  Prints the phase
timestamps (perf_counter_ns) as one JSON line for ``run.py``."""

import json
import time

t_import = time.perf_counter_ns()
import vaporplate  # noqa: E402

t_load = time.perf_counter_ns()
scn = vaporplate.load_preset("fig7-full")
t_warm = time.perf_counter_ns()
vaporplate.load_preset("fig7-full")
t_spec = time.perf_counter_ns()
scn.sweep_spec(geometry=vaporplate.COUNTER)
t_end = time.perf_counter_ns()

print(json.dumps({"import": [t_import, t_load],
                  "load_cold": [t_load, t_warm],
                  "load_warm": [t_warm, t_spec],
                  "sweep_spec": [t_spec, t_end],
                  "package": vaporplate.__file__}))
