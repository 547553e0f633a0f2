"""The example scripts under scripts/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_scalar_hopf_demo_reports_subcritical():
    proc = run_script("scalar_hopf_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "subcritical" in proc.stdout


def test_cli_digests_prints_one_line_per_cli_operation():
    proc = run_script("cli_digests.py", "--seeds", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    workloads = [line.split()[:2] for line in lines]
    assert workloads == ([["hopf_curve_l1", "0"]] + [["continuation", "0"]] * 3
                         + [["readme", "-"]] * 13
                         + [["compiled", name] for name in ("fold_quadratic", "position_control",
                                                            "scalar_nested") for _ in range(7)])
    # the README's CLI runs whose models are bundled, after the seeded operations
    assert [" ".join(line.split()[2:-1]) for line in lines[4:17]] == [
        "eq", "eq --format csv", "roots", "roots --root-count 24", "hopf-nf", "fold-nf", "branch",
        "branch --format csv", "branch --range=-1:1", "hopf-curve --monitor-l1",
        "hopf-curve --monitor-l1 c=0.7", "simulate", "simulate --format csv",
    ]
    # then each generated function of each bundled model
    assert [line.split()[2] for line in lines[17:24]] == [
        "f", "delays", "functional", "functional_nodes", "derivs1", "derivs2", "rk4",
    ]
    assert len({line.split()[-1] for line in lines[17:]}) == 21
    assert all(len(line.split()[-1]) == 64 for line in lines)
