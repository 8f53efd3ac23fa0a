# imported before numpy so its BLAS thread pin (see meshmotion/__init__.py)
# covers the whole session
import meshmotion  # noqa: F401  isort: skip

import numpy as np
import pytest

from meshmotion import body


def make_scaffold_model():
    """Exact oracle model: 24 vertices pinned to the rest skeleton.

    One-hot regressors and skin weights make every derived quantity
    hand-computable: joints ARE template rows and each vertex follows its
    joint rigidly.
    """
    verts = body.REST_SCAFFOLD.copy()
    eye = np.eye(body.N_JOINTS)
    return body.BodyModel(
        template=verts,
        shape_dirs=np.zeros((body.N_JOINTS, 3, body.SHAPE_DIM)),
        joint_regressor=eye[body.KEYPOINT_JOINTS[:14]].copy(),
        parents=body.PARENTS.copy(),
        skin_weights=eye.copy(),
        rest_regressor=eye.copy(),
    ).validate("scaffold")


@pytest.fixture(scope="session")
def toy_model():
    return body.make_toy_model(seed=0)


@pytest.fixture(scope="session")
def scaffold_model():
    return make_scaffold_model()
