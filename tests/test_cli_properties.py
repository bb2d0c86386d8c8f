"""Property test of ``nambu run``'s input checks (hypothesis): any mix of bad
and extreme values exits 2 before any work (building F, compiling a field,
planning or taking a step), or reaches that work."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nambu_dyn import scenarios  # noqa: E402
from nambu_dyn.cli import main  # noqa: E402

EXTREMES = [0.0, -0.0, 5e-324, 1e-320, 1e-200, 1e200, 1e308, math.inf, -math.inf, math.nan]
FLAGS = ["--dt", "--t-end", "--qc", "--pc", "--sigma", "--stride", "--q-stop"]
N_DOF = {"harmonic": 1, "cubic": 1, "henon-heiles": 2}


class _Started(Exception):
    """A run reached its first work: its input passed every check."""


def _text(flag: str, value: float, n_dof: int) -> str:
    if flag == "--stride":  # an integer flag: a float that is one, as an integer
        return str(int(value)) if math.isfinite(value) and value.is_integer() else repr(value)
    if flag in ("--qc", "--pc", "--sigma"):
        return ",".join([repr(value)] * n_dof)
    return repr(value)


# A wide packet on its grid warns, and is no bad input.
@pytest.mark.filterwarnings("ignore::nambu_dyn.quantum.BoundarySupportWarning")
def test_bad_run_input_exits_2_before_any_work(monkeypatch, tmp_path, capsys):
    def started(*args, **kwargs):
        raise _Started

    for name in ("hamiltonian_set", "compile_nambu_field", "compile_classical_field",
                 "rk4_integrate", "integrate", "choose_split_step"):
        monkeypatch.setattr(scenarios, name, started)
    out = tmp_path / "never.csv"

    @settings(max_examples=300, deadline=None)
    @given(
        model=st.sampled_from(sorted(N_DOF)),
        method=st.sampled_from(["nambu", "classical", "quantum"]),
        flags=st.dictionaries(
            st.sampled_from(FLAGS), st.sampled_from(EXTREMES) | st.floats(), max_size=4
        ),
    )
    def check(model, method, flags):
        argv = ["run", "--model", model, "--method", method, "--out", str(out)]
        argv += [f"{flag}={_text(flag, value, N_DOF[model])}" for flag, value in flags.items()]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a value that is not of the flag's type
            assert exc.code == 2, argv
            return
        except _Started:
            return
        finally:
            printed = capsys.readouterr()
        assert code == 2, argv
        assert printed.out == "" and printed.err.startswith("error: "), argv
        assert not out.exists()

    check()
