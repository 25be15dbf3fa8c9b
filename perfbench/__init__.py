"""psifno benchmark: four closed-loop workloads timed from outside the package."""
