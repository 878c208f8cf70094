import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from orelab import Corpus, Facts, enumerate_5_ore, named_graph
from orelab.ore import recipe_to_text

LAB_NAMED = ("c5_join_k2", "groetzsch", "k1_join_groetzsch", "mycielski_groetzsch")


@pytest.fixture(scope="session")
def ore13():
    """All 5-Ore isomorphism classes with at most 13 vertices."""
    return list(enumerate_5_ore(13))


@pytest.fixture(scope="session")
def ore17():
    """All 5-Ore isomorphism classes with at most 17 vertices.

    Building this list dominates the suite's startup cost (a few
    seconds); everything downstream shares the one copy.
    """
    return list(enumerate_5_ore(17))


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
