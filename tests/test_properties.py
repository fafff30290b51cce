"""Property tests: generated configs and sidecars either run or fail cleanly,
transforms round-trip, random solenoidal fields keep their invariants, and the
shell profiles form a partition of unity.  The streamed k-contraction equals
its three written-out sums bit for bit, and so does the per-component tensor
L2 norm its stacked formula.

A bad input must surface as a ConfigurationError (exit 2 with one
``error:`` line), never as a traceback.  The trisums of any Lemma-1 table
equal the literal double sums over shell pairs.
"""

import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpns.cli import CONFIG_KEYS, load_run_config, main
from lpns.errors import ConfigurationError
from lpns.flux import (
    EPS_FLOOR,
    SYM_WEIGHTS,
    _contract_k,
    _lemma1_terms,
    _trisums,
    tensor_l2_norm,
    total_flux,
)
from lpns.lp import phi_profile, psi_profile
from lpns.snapshots import read_snapshot, sidecar_path, write_snapshot
from lpns.spectral import (
    PhysicalVelocity,
    _lattice,
    _lattice_sum,
    dealiased_spectrum,
    energy,
    inverse_transform,
    is_dealiased,
)

from conftest import full_spectrum, random_solenoidal_field

BASE_CONFIG = {"n": "16", "nu": "0.1", "dt": "1e-3", "t_end": "0.01", "ic": "random",
               "spectrum": "0:0.1,1:0.05"}

#: Any code points, lone surrogates included: written with "surrogatepass",
#: a surrogate becomes bytes that are not valid UTF-8.
TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
#: Number texts on the edges of the parsers, and fractions of them.
NUMBERS = st.sampled_from(["0", "1", "-1", "16", "1e-3", "1e400", "nan", "inf", "x", ""])
FRACTIONS = st.builds("{}/{}".format, NUMBERS, NUMBERS)
CONFIG_VALUES = st.one_of(
    NUMBERS,
    FRACTIONS,
    st.sampled_from(["random", "taylor_green", "snapshot", "0:0.1,1:0.2", "a:b", "1:", "off"]),
    TEXT,
)


@st.composite
def config_texts(draw):
    """A valid config with a fraction for its dealias key half the time, up
    to one key dropped, up to three keys set or added, and up to two lines
    of arbitrary text, in any order."""
    entries = dict(BASE_CONFIG)
    if draw(st.booleans()):
        entries["dealias"] = draw(FRACTIONS)
    for key in draw(st.sets(st.sampled_from(sorted(BASE_CONFIG)), max_size=1)):
        del entries[key]
    keys = st.sampled_from(sorted(CONFIG_KEYS | {"s"})) | TEXT
    entries.update(draw(st.dictionaries(keys, CONFIG_VALUES, max_size=3)))
    lines = [f"{key} = {value}" for key, value in entries.items()]
    lines += draw(st.lists(TEXT, max_size=2))
    return "\n".join(draw(st.permutations(lines)))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg") / "run.cfg"


@given(text=config_texts())
def test_config_loads_or_raises_configuration_error(config_path, text):
    config_path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        load_run_config(config_path)
    except ConfigurationError:
        pass


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)
SIDECARS = st.fixed_dictionaries({}, optional={
    "nu": st.floats(min_value=0.0) | JSON_VALUES,
    "grid": st.fixed_dictionaries(
        {}, optional={"dealias_fraction": st.floats(0.0, 1.5) | JSON_VALUES, "n": JSON_VALUES}
    ) | JSON_VALUES,
    "time": JSON_VALUES,
})


@pytest.fixture(scope="module")
def snapshot16(tmp_path_factory, grid16):
    path = tmp_path_factory.mktemp("snap") / "field.lpns"
    write_snapshot(path, inverse_transform(random_solenoidal_field(grid16, 4)))
    return path


@given(sidecar=SIDECARS, extra=st.dictionaries(TEXT, JSON_VALUES, max_size=2))
def test_analyze_runs_or_exits_2_on_any_sidecar(snapshot16, sidecar, extra):
    sidecar_path(snapshot16).write_text(json.dumps({**extra, **sidecar}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["analyze", str(snapshot16)])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def _reject_constant(token):
    raise AssertionError(f"report holds {token}, which is not JSON")


@st.composite
def simulate_configs(draw):
    """A small n = 16 run of 1 to 3 steps at a dealias fraction of 1/2, 2/3 or
    1, from random shells 0 to 3 or Taylor-Green, with or without a snapshot
    at every step."""
    dt = draw(st.sampled_from([1e-3, 2e-2]))
    steps = draw(st.integers(1, 3))
    entries = {
        "n": 16,
        "nu": draw(st.sampled_from([0.01, 0.5])),
        "dt": dt,
        "t_end": format(steps * dt, ".17g"),
        "dealias": draw(st.sampled_from(["1/2", "2/3", "1"])),
        "diag_every": draw(st.integers(1, 2)),
        "snapshot_every": draw(st.sampled_from([0, 1])),
        "nonlinear": draw(st.sampled_from(["true", "false"])),
        "ic": draw(st.sampled_from(["random", "taylor_green"])),
    }
    if entries["ic"] == "random":
        entries["seed"] = draw(st.integers(0, 2**16))
        shells = draw(st.dictionaries(st.integers(0, 3), st.sampled_from([0.0, 0.01, 1.0]),
                                      min_size=1))
        entries["spectrum"] = ",".join(f"{q}:{e}" for q, e in shells.items())
    else:
        entries["amplitude"] = draw(st.sampled_from([0.0, 1.0, 60.0]))
    return steps, entries


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("simulate")


#: Energy on the sphere |k| = n/2 at dealias = 1, a snapshot every step.
NYQUIST_SHELL_RUN = (1, {"n": 16, "nu": 0.01, "dt": 1e-3, "t_end": "0.001", "dealias": "1",
                         "diag_every": 1, "snapshot_every": 1, "nonlinear": "true", "ic": "random",
                         "seed": 0, "spectrum": "0:1.0,3:0.01"})


@settings(max_examples=60)
@example(case=NYQUIST_SHELL_RUN)
@given(case=simulate_configs())
def test_simulate_runs_or_fails_cleanly(run_dir, case):
    """A run exits 0, 2 or 3, with one ``error:`` (2) or ``numerical failure:``
    (3) line when it fails.  Exit 2 is a configuration refused before the march,
    so it writes no manifest; a written manifest says "ok" for 0 and "failed"
    for 3.  Every row is finite, and every snapshot reads back as a dealiased
    real field, its values those of its own retained block."""
    steps, entries = case
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    config = run_dir / "run.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    out = run_dir / "out"
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1
        assert lines[0].startswith("error: " if code == 2 else "numerical failure: ")
    manifest = out / "run_manifest.json"
    if manifest.exists():
        assert code != 2, lines
        assert json.loads(manifest.read_text())["status"] == ("ok" if code == 0 else "failed")
    csv = out / "diagnostics.csv"
    rows = csv.read_text().splitlines()[1:] if csv.exists() else []
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
    snapshots = sorted(out.glob("snapshot_*.lpns"))
    if code == 0:
        assert len(rows) == 1 + steps // entries["diag_every"]
        assert len(snapshots) == (steps + 1 if entries["snapshot_every"] else 0)
    for path in snapshots:
        phys, _ = read_snapshot(path)
        back = inverse_transform(dealiased_spectrum(phys)).values
        assert np.max(np.abs(back - phys.values)) <= 1e-12 * max(np.max(np.abs(phys.values)), 1e-300)


#: Real fields on the n=16 grid: a few drawn entries over a drawn background.
REAL_FIELDS = arrays(
    np.float64, (3, 16, 16, 16),
    elements=st.floats(-1e6, 1e6, allow_subnormal=False),
    fill=st.floats(-1e6, 1e6, allow_subnormal=False),
)


@given(values=REAL_FIELDS)
def test_transform_round_trip(grid16, values):
    back = inverse_transform(full_spectrum(PhysicalVelocity(grid16, values))).values
    assert np.max(np.abs(back - values)) <= 1e-12 * np.max(np.abs(values))


@given(seed=st.integers(0, 2**32 - 1), l2=st.floats(1e-3, 1e3))
def test_random_solenoidal_field_invariants(grid16, bank16, seed, l2):
    """Dealiased, zero mean, energy l2^2, and zero total flux to criterion 5's 1e-9."""
    u = random_solenoidal_field(grid16, seed, l2)
    assert is_dealiased(u)
    assert not np.any(u.coeffs[:, 0, 0, 0])
    assert energy(u) == pytest.approx(l2**2, rel=1e-12)
    flux_sum, scale = total_flux(u, bank16)
    assert abs(flux_sum) / max(scale, EPS_FLOOR) < 1e-9


#: (Q, r) with 0 < r <= 2^Q.
RADII = st.integers(0, 12).flatmap(
    lambda top: st.tuples(st.just(top), st.floats(0.0, 2.0**top, exclude_min=True))
)


@given(case=RADII)
def test_partition_of_unity(case):
    """psi(r) + sum_{q<=Q} phi_q(r) = 1 for 0 < r <= 2^Q, and every phi_q(r) lies in [0, 1]."""
    top, r = case
    phis = np.array([phi_profile(r, q) for q in range(top + 1)])
    assert np.all((phis >= 0.0) & (phis <= 1.0))
    assert psi_profile(r) + np.sum(phis) == pytest.approx(1.0, abs=1e-12)


#: Shell norms: empty shells and norms over six decades.
SHELL_NORMS = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@st.composite
def norm_tables(draw):
    """(||u_q||_2, ||u_q||_4) for shells 0 .. n-1, 1 <= n <= 9."""
    n = draw(st.integers(1, 9))
    column = st.lists(SHELL_NORMS, min_size=n, max_size=n)
    return np.array(draw(column)), np.array(draw(column))


@given(table=norm_tables(), s=st.floats(0.5, 2.5, exclude_min=True, exclude_max=True))
def test_trisums_equal_double_loops(table, s):
    """A, B, C from the Lemma-1 table against literal loops over (q, p)."""
    l2, l4 = table
    lams = 2.0 ** np.arange(len(l2))
    tri = _trisums(s, 1.0, lams, _lemma1_terms(l2, l4, lams))
    a = b = c = 0.0
    for q in range(len(l2)):
        for p in range(len(l2)):
            if p <= q:
                a += 2.0 ** (q * (2 * s - 1)) * l2[q] * 2.0 ** (2 * p) * l4[p] ** 2
            if p > q:
                b += 2.0 ** (q * (2 * s + 1)) * l2[q] * l4[p] ** 2
            if p <= q + 1:
                c += 2.0 ** (2 * s * q) * l2[q] ** 2 * 2.0 ** (2.5 * p) * l2[p]
    assert (tri.A, tri.B, tri.C) == pytest.approx((a, b, c), rel=1e-13, abs=0.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([16, 32]),
    scale=st.floats(1e-150, 1e150),
    zeros=st.sets(st.integers(0, 5), max_size=6),
)
def test_streamed_contraction_equals_written_out_sums(seed, n, scale, zeros):
    """_contract_k fed one component at a time, into a fresh or a dirty buffer,
    against k_j T_ij written out as three sums, byte for byte."""
    rng = np.random.default_rng(seed)
    shape = (6, n, n, n // 2 + 1)
    what = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    what[sorted(zeros)] = 0.0
    kx, ky, kz = _lattice(n)[:3]
    expected = np.stack([
        kx * what[0] + ky * what[1] + kz * what[2],
        kx * what[1] + ky * what[3] + kz * what[4],
        kx * what[2] + ky * what[4] + kz * what[5],
    ])
    assert _contract_k(iter(list(what)), (kx, ky, kz)).tobytes() == expected.tobytes()
    dirty = np.full((3, *shape[1:]), np.nan, dtype=np.complex128)
    assert _contract_k((w.copy() for w in what), (kx, ky, kz), out=dirty) is dirty
    assert dirty.tobytes() == expected.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([16, 32]),
    scale=st.floats(1e-150, 1e150),
    zeros=st.sets(st.integers(0, 5), max_size=6),
)
def test_tensor_l2_norm_equals_the_stacked_formula(seed, n, scale, zeros):
    """tensor_l2_norm sums one component at a time; the six-component stacked
    formula gives the same bytes."""
    rng = np.random.default_rng(seed)
    shape = (6, n, n, n // 2 + 1)
    tensor = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    tensor[sorted(zeros)] = 0.0
    stacked = math.sqrt(float(np.sum(SYM_WEIGHTS * _lattice_sum(np.abs(tensor) ** 2))))
    assert np.float64(tensor_l2_norm(tensor)).tobytes() == np.float64(stacked).tobytes()
