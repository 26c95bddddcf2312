"""The command line prints the recorded bytes (see byte_corpus.py).

Tier-1 checks seed 1 of the corpus and the validate, mc and reproduce_tables
outputs; the README experiment files are checked in test_docs.py, and the
full ten-seed corpus by ``python tests/byte_corpus.py`` in CI.  The corpus
argv come from ``perfbench/workloads.py``, so a benchmark change to one of
its argv generators must rewrite ``tests/byte_corpus.sha256`` with
``python tests/byte_corpus.py --update`` and name the moved argv.
"""

import byte_corpus


def test_corpus_seed_1_prints_the_recorded_bytes():
    recorded = byte_corpus.recorded()
    assert byte_corpus.corpus_digests(seeds=[1]) == {"corpus seed 1": recorded["corpus seed 1"]}


def test_validate_mc_and_reproduce_tables_print_the_recorded_bytes():
    recorded = byte_corpus.recorded()
    digests = byte_corpus.extra_digests()
    assert digests == {name: recorded[name] for name in digests}
    assert list(digests) == ["validate", "mc --d1 3000 --alpha 8 --trials 300000",
                             "scripts/reproduce_tables.py"]
