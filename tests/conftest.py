import pytest

from metaretrain.synthdigits import make_digits, write_idx


@pytest.fixture(scope="session")
def digits60k():
    """Full-size synthetic digit corpus (same scale as the MNIST train set)."""
    return make_digits(60000, seed=1234)


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory, digits60k):
    """IDX-format dataset directory shared across CLI/acceptance tests: the
    files `ensure_dataset(root, n_train=60000, seed=1234)` writes, with the
    table taken from `digits60k` rather than rendered again."""
    root = tmp_path_factory.mktemp("dataset")
    write_idx(digits60k, root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte")
    return root
