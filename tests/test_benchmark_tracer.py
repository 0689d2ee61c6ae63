"""The benchmark tracer (perfbench/tracer.py) still finds every function
it wraps or keys on, so a refactor cannot silently zero a per-layer
metric or crash a traced run.  The tracer is loaded by path, unchanged."""

import importlib.util
from pathlib import Path

import pytest

from qheis import suites

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# span names the tracer's metrics key on: kz.solve_ivp and kz.expm are
# traced as the layers "ode" and "expm"
KEYED = {"verify.quadratic_residual_matrices", "verify.projected_norms",
         "verify.dcr_residuals", "suites.report_to_json", "ode.solve_ivp", "expm.expm"}


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_keys_on_resolves(tracer):
    names = {name for name, _ in tracer._targets()}
    assert KEYED | set(tracer.COUNTERS) | tracer.HOLD_ARGS <= names


# the norm layers time verify.projected_norms, which the so(N) checks call
# on their block operators; the dressed-ladder checks of sl2-bose norm
# their weighted shifts by verify.shift_norm
@pytest.mark.parametrize("suite,layers", [
    ("sl2-bose", ("verify.products_s", "verify.dcr_calls_per_set", "suites.serialize_s")),
    ("kz-operator", ("kz.self_s", "suites.serialize_s")),
    ("kz-scalar", ("kz.self_s", "qspecial.calls")),
    ("soN-orbital", ("verify.norms_s", "verify.norm_calls", "verify.norm_elems",
                     "fock.calls", "soshift.self_s")),
])
def test_traced_pass_reports_its_layers(tracer, suite, layers):
    t = tracer.Tracer()
    with t:
        t.begin_pass(0)
        suites.report_to_json(suites.run_suite(
            suites.make_config(suite, **suites.MINIMA.get(suite, {}))))
        t.end_pass()
    metrics = tracer.pass_layer_metrics(t)[0]
    assert all(metrics[key] > 0 for key in layers), metrics
