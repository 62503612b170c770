"""Named, independently reproducible random streams.

Every stochastic sub-draw (covariates, true parameters, outcomes, the tiny
initialization matrix, replicate splits) gets its own child of a
SeedSequence keyed by (stream id, replicate index), so regenerating one
component never perturbs another.
"""

import numpy as np

from .exceptions import DomainError

STREAMS = {
    "covariates-x": 0,
    "covariates-z": 1,
    "parameters": 2,
    "outcomes": 3,
    "init": 4,
}


def stream_rng(seed: int, stream: str, replicate: int = 0) -> np.random.Generator:
    """Generator for the named stream of a given base seed and replicate;
    DomainError for a negative seed or replicate."""
    seed, replicate = int(seed), int(replicate)
    if seed < 0 or replicate < 0:
        raise DomainError(f"seed and replicate must be non-negative, got {seed} and {replicate}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(STREAMS[stream], replicate)))
