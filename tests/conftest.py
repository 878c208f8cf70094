import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from orelab import Facts, enumerate_5_ore, named_graph, ore, recipe_to_text
from orelab.constructions import NAMED
from orelab.corpus import Corpus

from helpers import CallRecorder, glued_pair, one_edge_changes, random_graph

LAB_NAMED = ("c5_join_k2", "groetzsch", "k1_join_groetzsch", "mycielski_groetzsch")


@pytest.fixture(scope="session")
def ore13():
    """All 5-Ore isomorphism classes with at most 13 vertices."""
    return list(enumerate_5_ore(13))


@pytest.fixture(scope="session")
def ore17_build():
    """``list(enumerate_5_ore(17))``, the suite's costliest input, and the
    argument tuples of the ``compose_graphs`` and ``canonical_form`` calls
    it made, in call order."""
    with pytest.MonkeyPatch.context() as patch:
        recorder = CallRecorder(patch)
        composed = recorder.watch(ore, "compose_graphs")
        canonized = recorder.watch(ore, "canonical_form")
        classes = list(enumerate_5_ore(17))
    return classes, composed, canonized


@pytest.fixture(scope="session")
def ore17(ore17_build):
    """All 5-Ore isomorphism classes with at most 17 vertices."""
    return ore17_build[0]


@pytest.fixture(scope="session")
def n17(ore17):
    """The 549 classes of ``ore17`` with 17 vertices, in the same order."""
    return [g for g, _ in ore17 if g.n == 17]


@pytest.fixture(scope="session")
def split_inputs(ore13):
    """The n <= 13 classes, the named graphs, 400 seeded random graphs (half
    of them two graphs glued at two vertices), and every one-edge deletion
    and addition of the n <= 13 classes."""
    classes = [g for g, _ in ore13]
    rng = random.Random(505)
    graphs = classes + [named_graph(name) for name in sorted(NAMED)]
    for i in range(400):
        graphs.append(glued_pair(rng) if i % 2 else
                      random_graph(rng.randint(1, 12), 0.3 + 0.6 * rng.random(), rng))
    for g in classes:
        graphs += one_edge_changes(g)
    return graphs


@pytest.fixture(scope="session")
def doubles(ore13):
    """The two 9-vertex classes, smaller cluster count first."""
    nine = [(g, r) for g, r in ore13 if g.n == 9]
    assert len(nine) == 2
    return nine


@pytest.fixture(scope="session")
def ore17_facts(ore17):
    """The facts of every class in ``ore17``, in the same order."""
    return [Facts.of(g) for g, _ in ore17]


@pytest.fixture(scope="session")
def lab_facts(ore17_facts):
    """``ore17_facts`` followed by the facts of the named lab graphs."""
    return ore17_facts + [Facts.of(named_graph(name)) for name in LAB_NAMED]


@pytest.fixture(scope="session")
def lab_corpus(tmp_path_factory, ore17, lab_facts):
    """A corpus holding every enumerated class plus the named graphs."""
    root = tmp_path_factory.mktemp("corpus")
    corpus = Corpus(root)
    provenance = [f"recipe {recipe_to_text(recipe)}" for _, recipe in ore17]
    provenance += [f"named {name}" for name in LAB_NAMED]
    for facts, source in zip(lab_facts, provenance):
        corpus.add(facts, source)
    return corpus


@pytest.fixture()
def recorder(monkeypatch):
    """A :class:`helpers.CallRecorder` whose wrappers last for the test."""
    return CallRecorder(monkeypatch)
