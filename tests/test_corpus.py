"""Every case of the byte-identity corpus (tests/corpus.py) still gives the
bytes recorded in tests/corpus_digests.json."""

import corpus


def test_corpus_outputs_match_their_recorded_digests(tmp_path):
    changed = corpus.changed_cases(corpus.run_corpus(tmp_path))
    assert not changed, f"{len(changed)} corpus cases changed: {changed[:20]}"
