import contextlib
import os

import numpy as np
import pytest

from trievolve import ExpressionTensor, TriclusterCoords


def make_tensor(values) -> ExpressionTensor:
    """Wrap a raw array as a fully-observed tensor with synthetic labels."""
    values = np.asarray(values, dtype=np.float64)
    n_g, n_c, n_t = values.shape
    return ExpressionTensor(
        values,
        tuple(f"g{i}" for i in range(n_g)),
        tuple(f"c{i}" for i in range(n_c)),
        tuple(str(i) for i in range(n_t)),
        np.zeros(values.shape, dtype=bool),
    )


def random_coords(rng, shape, min_size=2) -> TriclusterCoords:
    """Uniform random coords with at least ``min_size`` indices per axis."""
    picks = []
    for n in shape:
        size = int(rng.integers(min_size, n + 1))
        picks.append(tuple(rng.choice(n, size=size, replace=False)))
    return TriclusterCoords(*picks)


@contextlib.contextmanager
def pipe_path(text: str):
    """A ``/dev/fd`` path that reads ``text`` from a pipe once, as a shell's
    ``<(cat file)`` does; the text must fit in the pipe's buffer."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text.encode("utf-8"))
        os.close(write_end)
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


@pytest.fixture
def rng():
    return np.random.default_rng(97)
