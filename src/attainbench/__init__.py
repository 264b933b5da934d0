"""Benchmarking toolkit for anytime stochastic optimizers.

The package has three layers:

* problems — small synthetic suites (continuous and pseudo-Boolean) that
  count evaluations and notify loggers;
* logging — composable loggers assembled from triggers (when to record) and
  properties (what to record), with in-memory and flat-file backends;
* attainment — cross-run analysis: exact attainment level sets, bucketed
  attainment histograms, and surface/volume statistics.

The ``bench`` console script exposes the run/ingest/analyze pipeline.
"""

from .attainment import (AttainmentPoint, LevelSelector, LevelSet, Trajectory,
                         TrajectoryLogger, default_nadir, eaf_levels, surface, volume)
from .histogram import Axis, Discretization, Histogram, eah, fit_discretization
from .loggers import Batch, CellKey, Combine, Cursor, Logger, LogInfo, Store, Watcher
from .problems import (SUITES, ContinuousSuite, Direction, LeadingOnes,
                       MetaData, OneMax, Problem, PseudoBooleanSuite,
                       Rastrigin, Sphere, Suite)
from .properties import External, Property, RawY, RawYBest, TransformedY, TransformedYBest
from .solvers import SOLVERS, hill_climber, random_search
from . import triggers

__version__ = "0.1.0"

__all__ = [
    "AttainmentPoint", "Axis", "Batch", "CellKey", "Combine", "ContinuousSuite",
    "Cursor", "Direction", "Discretization", "External",
    "Histogram", "LeadingOnes", "LevelSelector", "LevelSet", "LogInfo",
    "Logger", "MetaData", "OneMax", "Problem", "Property",
    "PseudoBooleanSuite", "Rastrigin", "RawY", "RawYBest", "SOLVERS",
    "SUITES", "Sphere", "Store", "Suite", "Trajectory", "TrajectoryLogger",
    "TransformedY", "TransformedYBest", "Watcher", "default_nadir",
    "eaf_levels", "eah", "fit_discretization", "hill_climber",
    "random_search", "surface", "triggers", "volume",
]
