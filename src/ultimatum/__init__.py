"""Simulation and grading harness for the repeated ultimatum game.

The package simulates five-round ultimatum games between fair or greedy
players under two structures (one model simulating everything, or two
moderated agents), parses the resulting logs, grades them against a
human-behavior rubric, and reproduces the statistical comparisons used in
the summary tables. The root exports nothing else: import from the
submodules (engine, strategy, rubric, transcripts, agents, orchestrator,
stats, experiment, cli).
"""

__version__ = "0.1.0"
