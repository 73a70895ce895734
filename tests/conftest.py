import os

import pytest
from hypothesis import settings

from compmap import (CurveOptions, Point2, Rect, find_fixed_point,
                     find_ex5_two_equilibria, make_example,
                     trace_stable_curve)

# On CI a failing property test prints a @reproduce_failure line to replay
# its example; examples are still drawn at random.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def ex1():
    return make_example("ex1", {"a": 2.0})


@pytest.fixture(scope="session")
def ex2():
    return make_example("ex2")


@pytest.fixture(scope="session")
def ex3_t():
    return make_example("ex3_T")


@pytest.fixture(scope="session")
def ex3_t2():
    return make_example("ex3_T2")


@pytest.fixture(scope="session")
def ex4():
    return make_example("ex4")


@pytest.fixture(scope="session")
def ex5_three():
    # default parameters sit in the three-equilibria regime
    return make_example("ex5")


@pytest.fixture(scope="session")
def ex5_two():
    return find_ex5_two_equilibria()


@pytest.fixture(scope="session")
def ex1_fp(ex1):
    return find_fixed_point(ex1.map, Point2(1e-9, 1.0))


@pytest.fixture(scope="session")
def ex1_window():
    return Rect(0.0, 5.0, 0.0, 6.0)


@pytest.fixture(scope="session")
def ex1_curve(ex1, ex1_fp, ex1_window):
    return trace_stable_curve(ex1.map, ex1_fp, ex1_window)


@pytest.fixture(scope="session")
def ex3_t2_fp(ex3_t2):
    return find_fixed_point(ex3_t2.map, Point2(3.0, 1.5))


@pytest.fixture(scope="session")
def ex3_t2_curve(ex3_t2, ex3_t2_fp):
    return trace_stable_curve(ex3_t2.map, ex3_t2_fp, Rect(0.5, 8.0, 0.5, 8.0))
