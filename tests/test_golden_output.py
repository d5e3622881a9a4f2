"""Golden outputs of the capacitor trace and of the CSV writer.

The trace digests were recorded from the per-sample loop of
`reference_trajectory` and the per-cell writer of `reference_write_csv`
(`oracles.py`); like those of `test_golden.py` they depend on numpy's
vectorized exp kernel, so on another platform the comparison with
`reference_trajectory` is the check that still holds.
`python tests/test_golden_output.py` prints the digests of the current code
in the layout of GOLDEN.
"""

import csv
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from oracles import reference_trajectory, reference_write_csv

from loraeh.capacitor import build_model, simulate_trajectory
from loraeh import cli
from loraeh.cli import _write_csv, build_parser, cmd_capacitor_trace, main
from loraeh.config import load_config
from loraeh.errors import ConfigError
from loraeh.phy import AIRTIMES_S

# the slow-mixing benchmark configuration: 40 mF, Weibull shape 0.5
SLOW_MIXING = "[capacitor]\ncapacitance_f = 0.04\n[scheme]\nk = 0.5\n"
CONFIGS = {"default": None, "slow-mixing": SLOW_MIXING}

# (cycles, ring, samples per phase): a Latin square, so every pair of values
# of two of the three arguments appears once
TRACE_ARGS = [
    (cycles, ring, (1, 3, 20)[(i + j) % 3]) for i, cycles in enumerate((0, 1, 1000)) for j, ring in enumerate((1, 4, 6))
]
TRACE_CASES = {f"{config}-c{c}-r{r}-s{s}": (config, c, r, s) for config in CONFIGS for c, r, s in TRACE_ARGS}

# case -> (sha256 of trace_ud.csv, sha256 of trace_wd.csv)
GOLDEN = {
    'default-c0-r1-s1': ('6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107', '6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107'),
    'default-c0-r4-s3': ('6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107', '6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107'),
    'default-c0-r6-s20': ('6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107', '6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107'),
    'default-c1-r1-s3': ('8379c8a16e59c1145d65c2c0a320d2b40be96a255e187eec631cc72c2a9d996d', '345462a82d938a458cb4175156692752e2d79552e47764028e806bda84ec06cb'),
    'default-c1-r4-s20': ('a762aeeec84983478345a364467af01806ef184c3f22011610888437b466cd4b', 'f22ca8cf1808a7774f245bae700f25781ebc12dcc79479ebb44dc1f1b8778e88'),
    'default-c1-r6-s1': ('5888e2493e6853854aac9dc5bf79107bc38a21ab5487bbcf2a68ab88986fb789', '676457dbb733f230f154723386abdf1b756454b589092f82e3bf9135abb1137f'),
    'default-c1000-r1-s20': ('149d414f1ca50fef2e4228d51f11a54166160ee2d3680cb1da1d085e4c9b14fb', '4f684d05479573dbd2231e10937994b5145cb9dae8449ac064bbc3c6a51c60aa'),
    'default-c1000-r4-s1': ('3f4d1313f3cae02b2e410ae3d6857af91cefffdaaf2b14b802ded3abc5f5b99c', '7007301933774588db6587d3776171fc5c9184ffca203c2753123998511dc1ad'),
    'default-c1000-r6-s3': ('0568b7a2ae997c8e62164a0f106465f8185f31977da6c4ff41f9f1e889415b3d', '9a278d9934f272289e876cb811778a02967254bbbbdd540489325081221337fb'),
    'slow-mixing-c0-r1-s1': ('6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107', '6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107'),
    'slow-mixing-c0-r4-s3': ('6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107', '6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107'),
    'slow-mixing-c0-r6-s20': ('6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107', '6b88938bf22011fa3d05bcbcb36ab1a2e81c6497299aabbf893cc872b05b3107'),
    'slow-mixing-c1-r1-s3': ('9de41c91cc296c5dd2bf5867c9d4ac694994d6178f517edd34d5d8624ce66091', 'be3184204fbbaf1113a65a2c0cb6cc28a17f1263509e3dedb4c62409f0c49acb'),
    'slow-mixing-c1-r4-s20': ('0eb0eb667af6d6fb9aef000aaf14844afa99885458b24a57c1cb2db524943142', 'ae7d73249c8e00a48e980156e95a22d7977a87ab684d5d74a90ef9eda3c50a5b'),
    'slow-mixing-c1-r6-s1': ('8cc3d2c10bd1424410cf58091dc4f7ea18c1ca08dd8123416403e2ca71b92218', 'e52b37c415630d3ee3f4b04e1252b711c30c7a8ba54b79e71e136fd10d6fecd5'),
    'slow-mixing-c1000-r1-s20': ('b84d649d3bdb145157898a3817d2dc8417accbe08baff1cdd2f232609f8a39cb', 'ba6c986b6a93e89b05b0c43cd6a8d5bdc9a0a29df30c06a0976cb2472ff13b3e'),
    'slow-mixing-c1000-r4-s1': ('8fa68c6dcc947c9253eb1b0287467c8b482534c429491445b4267ad0748894b2', '0c339ff47c0980b39380f2c86221d99907aff9b331ccd12e9d1466765f5351bc'),
    'slow-mixing-c1000-r6-s3': ('e89e634b002d87c9c98d13e159069f2c941fa02d5fde5d647a7b6c3db38540da', '9bf4829be3e96f0968c940e9513781494a96eb9fd8a4aaf56475d3265bdcd66b'),
}


def trace_digests(case, workdir):
    config, cycles, ring, spp = TRACE_CASES[case]
    args = ["capacitor-trace", "--cycles", cycles, "--ring", ring, "--samples-per-phase", spp, "--seed", 3]
    if CONFIGS[config] is not None:
        (workdir / "run.ini").write_text(CONFIGS[config])
        args += ["--config", workdir / "run.ini"]
    out = workdir / "out"
    assert main([str(a) for a in args] + ["--out", str(out)]) == 0
    return tuple(hashlib.sha256((out / f"trace_{label}.csv").read_bytes()).hexdigest() for label in ("ud", "wd"))


@pytest.mark.parametrize("case", TRACE_CASES)
def test_trace_csv_bytes(tmp_path, case):
    assert trace_digests(case, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("label", ("uniform", "weibull"))
@pytest.mark.parametrize("n_cycles, samples_per_phase", [(0, 20), (1, 1), (7, 3), (300, 20), (500, 1)])
def test_matches_per_sample_reference(tmp_path, config, label, n_cycles, samples_per_phase):
    path = None
    if CONFIGS[config] is not None:
        path = tmp_path / "run.ini"
        path.write_text(CONFIGS[config])
    run = load_config(path and str(path))
    m = build_model(run.phy, run.mode)
    scheme = run.schemes[label]
    for seed, airtime in zip((0, 1, 17, 2024), AIRTIMES_S[[0, 3, 5, 2]]):
        traj = simulate_trajectory(
            run.v_initial, scheme, airtime, n_cycles, m, seed=seed, samples_per_phase=samples_per_phase
        )
        ref = reference_trajectory(
            run.v_initial, scheme, airtime, n_cycles, m, seed=seed, samples_per_phase=samples_per_phase
        )
        got = (traj.times, traj.voltages, traj.phases, traj.cycle_index)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n_cycles, samples_per_phase", [(-1, 20), (5, 0), (5, -2)])
def test_trajectory_rejects_bad_sizes(fig2, model, n_cycles, samples_per_phase):
    with pytest.raises(ConfigError):
        simulate_trajectory(1.8, fig2.scheme, 0.204, n_cycles, model, samples_per_phase=samples_per_phase)


def test_writer_matches_per_cell_writer(tmp_path):
    n = 10_007  # several write blocks and a partial one
    rng = np.random.default_rng(4)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    floats[:8] = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, 5e-324, 1.0 / 3.0]
    columns = [
        rng.random(n) < 0.5,
        rng.integers(-(2**62), 2**62, n),
        [int(x) for x in rng.integers(-(10**6), 10**6, n)],
        np.asarray(["charge", "tx", "", "é"] * (n // 4) + ["x"] * (n % 4)),
        [str(i) for i in range(n)],
        floats,
        (rng.standard_normal(n) * 10.0 ** rng.integers(-45, 38, n)).astype(np.float32),
        [float(x) for x in floats],
        rng.integers(0, 7, n).astype(np.uint8),
    ]
    header = [f"c{i}" for i in range(len(columns))]
    _write_csv(str(tmp_path / "new.csv"), dict(zip(header, columns)))
    reference_write_csv(str(tmp_path / "old.csv"), header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_writer_empty_and_short_columns(tmp_path):
    _write_csv(str(tmp_path / "empty.csv"), {"a": np.empty(0), "b": []})
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"
    _write_csv(str(tmp_path / "short.csv"), {"flag": [True, False], "n": [np.int64(-3), 4], "x": [-0.0, 1e-300]})
    assert (tmp_path / "short.csv").read_text() == "flag,n,x\n1,-3,-0\n0,4,1e-300\n"
    with pytest.raises(ValueError):
        _write_csv(str(tmp_path / "ragged.csv"), {"a": [1, 2], "b": [3]})


# every kind of column dtype the writer formats but object, which no CLI table holds
KINDS = ["f2", "f4", "f8", "i1", "i2", "i4", "i8", "u8", "b", "U", "S"]
# a space, a non-ASCII letter and an ASCII one: no CLI field holds a character csv.writer would quote
TEXT = st.text(st.sampled_from([" ", "é", "a"]), max_size=5)


def random_column(kind, n, rng, texts):
    """n cells of dtype `kind`: floats over their whole range with subnormals and
    specials, integers over their whole range, strings from `texts`."""
    if kind[0] == "f":
        info = np.finfo(kind)
        x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(info.minexp - info.nmant, info.maxexp, n)).astype(kind)
        special = rng.random(n) < 0.2
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, info.smallest_subnormal], kind)
        x[special] = rng.choice(specials, special.sum())
        return x
    if kind[0] in "iu":
        info = np.iinfo(kind)
        return rng.integers(info.min, info.max, n, dtype=kind, endpoint=True)
    if kind == "b":
        return rng.random(n) < 0.5
    if kind == "U":
        return np.asarray(texts)[rng.integers(0, len(texts), n)]
    return np.asarray([t.encode() for t in texts])[rng.integers(0, len(texts), n)]


@given(
    n_rows=st.integers(0, 3000),
    kinds=st.lists(st.sampled_from(KINDS), max_size=len(KINDS)),
    texts=st.lists(TEXT, min_size=1, max_size=6),
    header=st.lists(TEXT, min_size=len(KINDS), max_size=len(KINDS), unique=True),
    seed=st.integers(0, 2**32 - 1),
    block_rows=st.sampled_from([1, 7, 256, 4096]),  # so a table of a few rows spans several blocks
)
@example(n_rows=3000, kinds=KINDS, texts=list(" éa"), header=list(" éabcdefghi"), seed=1, block_rows=256)
def test_writer_matches_per_cell_writer_on_random_tables(
    tmp_path_factory, n_rows, kinds, texts, header, seed, block_rows
):
    # csv.writer quotes a one-column row's empty field; every CLI table has several columns
    assume(len(kinds) != 1 or header[0] and "" not in texts)
    rng = np.random.default_rng(seed)
    columns = [random_column(kind, n_rows, rng, texts) for kind in kinds]
    header = header[: len(kinds)]
    out = tmp_path_factory.mktemp("csv")
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        _write_csv(str(out / "new.csv"), dict(zip(header, columns)))
    reference_write_csv(str(out / "old.csv"), header, zip(*columns))
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("scheme", ["ud", "wd"])
@pytest.mark.parametrize(
    "args",
    [
        ["capacitor-trace", "--cycles", 5],
        ["steady-state", "--bins", 100],
        ["outage-sweep", "--bins", 100],
        ["coverage", "--bins", 100, "--points-per-ring", 2],
        # the slow-mixing chains of the plans need a finer grid
        ["act-plan", "--act", "cdc", "--bins", 600],
        ["act-plan", "--act", "cve", "--bins", 600],
        ["simulate", "--devices", 10, "--duration", 2e3, "--per-device"],
    ],
    ids=lambda a: " ".join(map(str, a[:3])),
)
def test_cli_fields_need_no_quoting(tmp_path, config, scheme, args):
    """The writer quotes nothing, so every CSV the CLI writes, header and text
    columns included, reads the same split on commas as csv.reader reads it."""
    argv = [*args, "--scheme", scheme, "--out", tmp_path / "out"]
    if CONFIGS[config] is not None:
        (tmp_path / "run.ini").write_text(CONFIGS[config])
        argv += ["--config", tmp_path / "run.ini"]
    assert main([str(a) for a in argv]) == 0
    paths = sorted((tmp_path / "out").glob("*.csv"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        with open(path, newline="", encoding="utf-8") as fh:
            assert [line.split(",") for line in text.split("\n")[:-1]] == list(csv.reader(fh)), path.name


def test_writer_memory_on_the_trace_table(tmp_path, fig2):
    """The writer holds one block's cells, never a whole column's text: the
    40 001-row table of capacitor-trace --cycles 1000 peaks at about 1 MiB."""
    args = build_parser().parse_args(["capacitor-trace", "--cycles", "1000"])
    table = cmd_capacitor_trace(args, fig2, build_model(fig2.phy, fig2.mode))["trace_ud.csv"]
    assert len(table["time_s"]) == 40_001
    tracemalloc.start()
    try:
        _write_csv(str(tmp_path / "trace_ud.csv"), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(TRACE_CASES):
            workdir = Path(tmp) / str(i)
            workdir.mkdir()
            print(f"    {case!r}: {trace_digests(case, workdir)},")
