"""Byte pins of the command line.

Every subcommand runs in text, json and csv; each run's exit code, stdout,
stderr and `--out` file are hashed together and compared with the table
below. Usage errors (exit 2) and node-cap timeouts (exit 3) are pinned the
same way. A failing case prints the digest it got, so an intended change of
output updates one table entry.
"""

import hashlib
import json
import re

import pytest

from dilations.cli import main

FILES = {
    "g.el": "n 4\n0 1\n2 3\n",
    "bad.el": "0 1 2\n1 2\n",
    "h.txt": "m 9\n0 1 2\n3 4 5\n6 7 8\n",
    "w.json": '{"edge_map": [0, 1, 3, 5, 6, 2, 4], "injection": [0, 1, 3, 2, 5, 6, 4]}\n',
    "w_bad.json": '{"edge_map": [0, 1, 2, 3, 4, 5, 6], "injection": [0, 1, 2, 3, 4, 5, 6]}\n',
    "w_broken.json": "{\n",
}

# (argv, {format: digest}); every argv also gets --no-timestamp
CASES = [
    ("gen --family cycle:5",
     {"text": "6872270a9f80c710", "json": "08d7cbae2dbc731d", "csv": "6872270a9f80c710"}),
    ("gen --family g_nr:3,1 --encoding edge_list",
     {"text": "ea9d46ac017d939a", "json": "9e7e254352d1d0c8", "csv": "ea9d46ac017d939a"}),
    ("gen --graph g.el",
     {"text": "ccf9043897382ae3", "json": "b2bab691c1025876", "csv": "ccf9043897382ae3"}),
    ("dilate --family cycle:3 --k 4 --s-uniform 1 --a-uniform 1",
     {"text": "f38d1a705915aae1", "json": "8921d3b75112f38b", "csv": "f38d1a705915aae1"}),
    ("dilate --family path:3 --k 4 --s 1,2,1 --a 0,1",
     {"text": "545c57e2afc96c63", "json": "65249dc05be29bd7", "csv": "545c57e2afc96c63"}),
    ("dilate --family path:3 --k 4 --s-uniform 1 --a-uniform 0",
     {"text": "94151c8fcf40b2d2", "json": "eb1d1517829da782", "csv": "94151c8fcf40b2d2"}),
    ("power --family cycle:5 --k 4 --s 2",
     {"text": "ca4a3eabe33a0dfa", "json": "ea041858889b1822", "csv": "ca4a3eabe33a0dfa"}),
    ("power --family star:3 --k 3 --s 1",
     {"text": "8b664a190b40d50d", "json": "436172b712626698", "csv": "8b664a190b40d50d"}),
    # 2,016 hyperedges, all of them in the json run's property checks
    ("power --family complete:64 --k 8 --s 1",
     {"text": "167adce14891f536", "json": "a90f9d5343e9b509", "csv": "167adce14891f536"}),
    # 2,016 hyperedges of 20 vertices each
    ("power --family complete:64 --k 20 --s 1",
     {"text": "d83de4cda88cd964", "json": "ee76d7feb617c0f3", "csv": "d83de4cda88cd964"}),
    ("invariant --param gamma --family cycle:7",
     {"text": "e4cc5aee011520b7", "json": "311e659a973eac10", "csv": "e4cc5aee011520b7"}),
    ("invariant --param nu --family cp_vee_cq:4,3",
     {"text": "de77adbe327017f3", "json": "f237b23ba4b4c418", "csv": "de77adbe327017f3"}),
    ("invariant --param tau --family cycle:5 --mode exhaustive",
     {"text": "0eb12f38deb425b8", "json": "230ba52c55a95810", "csv": "0eb12f38deb425b8"}),
    ("invariant --param nu --hypergraph fano",
     {"text": "88690604f3216686", "json": "1a083ca7fce6505f", "csv": "88690604f3216686"}),
    ("invariant --param tau --hypergraph h.txt",
     {"text": "974d7d30830283de", "json": "149047d0e33b32c9", "csv": "974d7d30830283de"}),
    ("invariant --param tau --family cycle:5 --out o.txt",
     {"text": "1b3f6bcd109e74c6", "json": "43ac64b6f6a7154a", "csv": "1b3f6bcd109e74c6"}),
    ("keg --family cp_vee_cq:3,3",
     {"text": "749fc8232bfb9af2", "json": "baa33d85dfb3020d", "csv": "749fc8232bfb9af2"}),
    ("keg --family cycle:4",
     {"text": "4b398b11ae50daab", "json": "eec0257fe5d1c95a", "csv": "4b398b11ae50daab"}),
    ("classify --family cycle:4",
     {"text": "6587738499c8016a", "json": "dad2698feccbade7", "csv": "6587738499c8016a"}),
    ("classify --family path:4",
     {"text": "d3be365444f7d10d", "json": "b1be914c88a500eb", "csv": "d3be365444f7d10d"}),
    ("classify --graph g.el",
     {"text": "2c1a4e87d4f47825", "json": "442dc3cb013f51fb", "csv": "2c1a4e87d4f47825"}),
    ("classify --family cycle:3 --what dilation --k 4 --s-uniform 1 --a 1,0,0",
     {"text": "7f7d5b1a0c1ab895", "json": "ae27aa6cf2f679b5", "csv": "7f7d5b1a0c1ab895"}),
    ("berge search --family cycle:7 --hypergraph fano",
     {"text": "59e5ab223b2a2bab", "json": "c7e7201d4183e16c", "csv": "59e5ab223b2a2bab"}),
    ("berge search --family cycle:3 --hypergraph h.txt",
     {"text": "330d0794fa1adaf9", "json": "6351631171c0f2cc", "csv": "330d0794fa1adaf9"}),
    ("berge verify --family cycle:7 --hypergraph fano --witness w.json",
     {"text": "eb5ba36c24984263", "json": "2e2af840bf0f7066", "csv": "eb5ba36c24984263"}),
    ("berge verify --family cycle:7 --hypergraph fano --witness w_bad.json",
     {"text": "2c6bc8c872a66a6a", "json": "8830c8bd58d95bad", "csv": "2c6bc8c872a66a6a"}),
    ("enumerate --n 4",
     {"text": "029578bdd51c2657", "json": "40e0630951325a33", "csv": "029578bdd51c2657"}),
    ("enumerate --n 5 --min-degree 2 --non-bipartite",
     {"text": "57d06de966c1774d", "json": "6f1980a1a3a9eb3b", "csv": "57d06de966c1774d"}),
    ("enumerate --n 5 --bipartite",
     {"text": "361a1100ab342c24", "json": "1f099da45a8cb338", "csv": "361a1100ab342c24"}),
    ("derive-nb --max-n 5",
     {"text": "a481678e23aa1319", "json": "4ad040180f3f4188", "csv": "a481678e23aa1319"}),
    ("verify hereditary --max-n 4 --seed 7",
     {"text": "74cb6c7500c75fe0", "json": "30e47d444f421546", "csv": "3044b89e9b86d2d2"}),
    ("verify extremal-gamma1 --max-n 4",
     {"text": "8731a6ca5359480f", "json": "ca6acced9a37cbfe", "csv": "4e542d5b8045e9f1"}),
    ("verify extremal-gamma0 --max-n 4",
     {"text": "615a14dec0975bdb", "json": "667538f4c15a1a29", "csv": "530d5023326917e7"}),
    ("verify nonextremal --max-n 4",
     {"text": "5731d4a3318a8c85", "json": "2041e68191dc8297", "csv": "0c5c74a0a23fb531"}),
    ("verify counterexample --max-n 3",
     {"text": "53bf08dd35b544ab", "json": "f0a3ff4cf3b4c079", "csv": "b9e9d1271797d2ee"}),
    ("verify all --max-n 4 --out o.txt",
     {"text": "08d333f016d43f02", "json": "8584b883cd8014c8", "csv": "55791e5086e6c6b0"}),
    # usage errors: exit 2
    ("gen",
     {"text": "0cf92943625ac599", "json": "0cf92943625ac599", "csv": "0cf92943625ac599"}),
    ("dilate --family cycle:3 --k 3",
     {"text": "a07cdfbd24c0d36f", "json": "a07cdfbd24c0d36f", "csv": "a07cdfbd24c0d36f"}),
    ("dilate --family cycle:3 --k 3 --s-uniform 1",
     {"text": "568561ff2b276911", "json": "568561ff2b276911", "csv": "568561ff2b276911"}),
    ("dilate --family cycle:3 --k 2 --s-uniform 2 --a-uniform 1",
     {"text": "a10805969d5c64d0", "json": "a10805969d5c64d0", "csv": "a10805969d5c64d0"}),
    ("classify --family cycle:3 --what dilation",
     {"text": "88d0fd41a3904de5", "json": "88d0fd41a3904de5", "csv": "88d0fd41a3904de5"}),
    ("berge verify --family cycle:7 --hypergraph fano",
     {"text": "0b83c55065fd8642", "json": "0b83c55065fd8642", "csv": "0b83c55065fd8642"}),
    ("berge verify --family cycle:7 --hypergraph fano --witness w_broken.json",
     {"text": "b8f68c9efe8edd6b", "json": "b8f68c9efe8edd6b", "csv": "b8f68c9efe8edd6b"}),
    ("berge search --family cycle:3 --hypergraph fano",
     {"text": "f87871622b5a1493", "json": "f87871622b5a1493", "csv": "f87871622b5a1493"}),
    ("invariant --param tau --graph missing.el",
     {"text": "1dfd3e9d9bd44011", "json": "1dfd3e9d9bd44011", "csv": "1dfd3e9d9bd44011"}),
    ("invariant --param tau --family nosuch:3",
     {"text": "516ce2345c3327ef", "json": "516ce2345c3327ef", "csv": "516ce2345c3327ef"}),
    # a first line of more than one token is read as an edge list
    ("gen --graph bad.el",
     {"text": "674ea624a1e7de76", "json": "674ea624a1e7de76", "csv": "674ea624a1e7de76"}),
    ("derive-nb --max-n 2",
     {"text": "553a6cc09106c19c", "json": "553a6cc09106c19c", "csv": "553a6cc09106c19c"}),
    ("verify hereditary --max-n 1",
     {"text": "ba94ed04307715ef", "json": "ba94ed04307715ef", "csv": "ba94ed04307715ef"}),
    # an option that the chosen input or mode does not read
    ("gen --family cycle:3 --graph-format edge_list",
     {"text": "8ea197ce2289519e", "json": "8ea197ce2289519e", "csv": "8ea197ce2289519e"}),
    ("classify --family cycle:4 --k 4 --s-uniform 1",
     {"text": "8dcaf1beab8fe517", "json": "8dcaf1beab8fe517", "csv": "8dcaf1beab8fe517"}),
    ("berge search --family cycle:7 --hypergraph fano --witness nofile.json",
     {"text": "2526c4d08ee720c0", "json": "2526c4d08ee720c0", "csv": "2526c4d08ee720c0"}),
    # verify reads --seed and --samples only for hereditary and all, so they
    # are rejected elsewhere, also at their default values
    ("verify counterexample --max-n 3 --seed 5",
     {"text": "e3e3fb2794202ce7", "json": "e3e3fb2794202ce7", "csv": "e3e3fb2794202ce7"}),
    ("verify nonextremal --max-n 4 --samples 3",
     {"text": "eb51a466d757686b", "json": "eb51a466d757686b", "csv": "eb51a466d757686b"}),
    ("verify extremal-gamma0 --max-n 4 --seed 0",
     {"text": "e3e3fb2794202ce7", "json": "e3e3fb2794202ce7", "csv": "e3e3fb2794202ce7"}),
    # a seventh corona doubles even one vertex past 64; rejected at parse time
    ("gen --family corona:corona:corona:corona:corona:corona:corona:path:1",
     {"text": "e9666e6d6995703c", "json": "e9666e6d6995703c", "csv": "e9666e6d6995703c"}),
    # node-cap timeouts: exit 3
    ("invariant --param tau --family complete_minus_clique:4,2 --node-cap 3",
     {"text": "3dc53cd8554ffacf", "json": "3dc53cd8554ffacf", "csv": "3dc53cd8554ffacf"}),
    ("invariant --param gamma --family cycle:9 --mode exhaustive --node-cap 5",
     {"text": "d73e9988f7703107", "json": "d73e9988f7703107", "csv": "d73e9988f7703107"}),
    ("berge search --family cycle:7 --hypergraph fano --node-cap 3",
     {"text": "d9d65d3154ae508f", "json": "d9d65d3154ae508f", "csv": "d9d65d3154ae508f"}),
]


def digest(code: int, out: str, err: str, written) -> str:
    blob = json.dumps([code, out, err, written])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run(capsys, argv: list[str]):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv, expected", CASES, ids=[c[0] for c in CASES])
def test_bytes_pinned(capsys, workdir, argv, expected, fmt):
    args = argv.split() + ["--format", fmt, "--no-timestamp"]
    code, out, err = run(capsys, args)
    written = (workdir / "o.txt").read_text() if "--out" in args else None
    got = digest(code, out, err, written)
    assert got == expected[fmt], (
        f"digest {got}; exit {code}\n--- stdout\n{out}--- stderr\n{err}"
        f"--- out file\n{written}")


@pytest.mark.parametrize("argv, error_line", [
    ("", "dilations: error: the following arguments are required: command"),
    ("frobnicate", "dilations: error: argument command: invalid choice: 'frobnicate'"),
    ("keg --family cycle:4 --wat", "dilations: error: unrecognized arguments: --wat"),
    ("gen --family cycle:3 --format xml",
     "dilations gen: error: argument --format: invalid choice: 'xml'"),
    # options a command does not read are rejected, not ignored
    ("classify --family cp_vee_cq:4,3 --node-cap 1",
     "dilations: error: unrecognized arguments: --node-cap 1"),
    ("gen --family cycle:3 --seed 5", "dilations: error: unrecognized arguments: --seed 5"),
    # so are conflicting inputs
    ("gen --family cycle:3 --graph nofile",
     "dilations gen: error: argument --graph: not allowed with argument --family"),
    ("invariant --param nu --family cycle:5 --hypergraph fano",
     "dilations invariant: error: argument --hypergraph: not allowed with argument --family"),
])
def test_argparse_errors(capsys, argv, error_line):
    # argparse wraps its usage lines to the terminal width, and newer Pythons
    # quote the listed choices differently, so only the error line's start is
    # pinned
    code, out, err = run(capsys, argv.split())
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(error_line)


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_timestamp_line(capsys, workdir, fmt):
    argv = ["keg", "--family", "cycle:4", "--format", fmt]
    code, out, err = run(capsys, argv)
    _, pinned, _ = run(capsys, argv + ["--no-timestamp"])
    lines = out.splitlines(keepends=True)
    assert code == 0 and err == ""
    assert re.fullmatch(r"# generated: \d{4}-\d\d-\d\dT[0-9:.]+\+00:00\n", lines.pop(1))
    assert "".join(lines) == pinned
