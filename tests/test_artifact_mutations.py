"""Every JSON artifact a command reads, mutated one path at a time.

A 3,000-event chain (synth -> clean -> features A,D1 -> cv -> train -> eval)
writes seven artifacts. At every JSON path of each (a list through its first
element), each of ``VALUES`` is written in turn, and the key is also deleted.
Every command that reads the file then runs through ``main()``: it must exit
0 with strict JSON written, or 1 with exactly one ``error:`` line. Any
warning is an error here, so an overflow that numpy only warns about fails.
The files under test are the JSON ones, so the thousands of runs share one
parser and one read of the feature CSV.
"""

import copy
import functools
import json

import pytest

from ratecast import cli
from ratecast.cli import main

VALUES = [None, True, False, 0, -1, 1.5, -0.0, 2**63, 10**30, 1e308, "x", "", [], [1], [[1]],
          {}, {"a": 1}]
_DELETE = object()
_TINY_CV = ["--num-params", "1", "--cv-k", "1", "--train-width", "300", "--test-width", "100",
            "--train-size", "150", "--test-size", "50"]
#: Per artifact, the commands that read it; "{}" is the mutated file, "{d}" the chain's folder.
READERS = {
    "params.json": [["train", "--features", "{d}/features.csv", "--params", "{}",
                     "--train-subset", "100"]],
    "space.json": [["cv", "--features", "{d}/features.csv", "--space", "{}", *_TINY_CV]],
    "model.json": [["eval", "--features", "{d}/features.csv", "--model", "{}",
                    "--test-subset", "50"],
                   ["report", "--model", "{}"]],
    "cv.json": [["train", "--features", "{d}/features.csv", "--from-cv", "{}",
                 "--train-subset", "100"],
                ["report", "--cv", "{}"]],
    "features.meta.json": [["report", "--features-meta", "{}"]],
    "eval.json": [["report", "--eval", "{}"]],
    "clean.json": [["report", "--clean-report", "{}"]],
}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    d = tmp_path_factory.mktemp("chain")
    (d / "params.json").write_text(json.dumps(
        {"n_estimators": 2, "max_depth": 3, "min_samples_split": 40, "min_samples_leaf": 10}))
    (d / "space.json").write_text(json.dumps(
        {"n_estimators": [2, 3], "max_depth": [2, 3], "min_samples_split": [20, 40],
         "min_samples_leaf": [5, 10], "max_features": [2.0, 4.0]}))
    for argv in (
        ["synth", "--out", f"{d}/events.csv", "--n", "3000", "--seed", "1", "--inject-zero", "3"],
        ["clean", "--in", f"{d}/events.csv", "--out", f"{d}/cleaned.csv",
         "--report", f"{d}/clean.json"],
        ["features", "--in", f"{d}/cleaned.csv", "--out", f"{d}/features.csv",
         "--groups", "A,D1"],
        ["cv", "--features", f"{d}/features.csv", "--out", f"{d}/cv.json",
         "--space", f"{d}/space.json", *_TINY_CV],
        ["train", "--features", f"{d}/features.csv", "--out", f"{d}/model.json",
         "--from-cv", f"{d}/cv.json"],
        ["eval", "--features", f"{d}/features.csv", "--model", f"{d}/model.json",
         "--out", f"{d}/eval.json"],
    ):
        assert main(argv) == 0, argv
    return d


def _paths(value, path=()):
    """Every path into ``value``, itself first; a list is walked through its first element."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list) and value:
        yield from _paths(value[0], (*path, 0))


def _mutated(document, path, value):
    if not path:
        return value
    document = copy.deepcopy(document)
    *parents, last = path
    holder = document
    for key in parents:
        holder = holder[key]
    if value is _DELETE:
        del holder[last]
    else:
        holder[last] = value
    return document


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@functools.cache
def _features_once(path, load=cli._load_features):  # ``load`` is the reader before patching
    arrays = load(path)
    for array in arrays[::2]:  # X and y, which no command may write to
        array.flags.writeable = False
    return arrays


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("artifact", list(READERS))
def test_every_mutation_of_an_artifact_exits_0_or_1_with_one_error_line(chain, tmp_path, capsys,
                                                                        monkeypatch, artifact):
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    monkeypatch.setattr(cli, "_load_features", _features_once)
    document = json.loads((chain / artifact).read_text())
    mutated, out = tmp_path / artifact, tmp_path / "out.json"
    runs = 0
    for path in _paths(document):
        for value in [*VALUES, _DELETE] if path else VALUES:
            mutated.write_text(json.dumps(_mutated(document, path, value)))
            for reader in READERS[artifact]:
                argv = [arg.format(mutated, d=chain) for arg in reader]
                out.unlink(missing_ok=True)
                capsys.readouterr()
                rc = main([*argv, "--out", str(out)])
                err = capsys.readouterr().err
                case = f"{argv[0]} with {list(path)} = {'deleted' if value is _DELETE else value!r}"
                assert rc in (0, 1), case
                if rc == 1:
                    assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
                else:
                    assert err == "", (case, err)
                    json.loads(out.read_text(), parse_constant=_refuse_constant)
                runs += 1
    assert runs > len(VALUES)
