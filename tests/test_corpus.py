"""Every case of the byte-identity corpus (tests/corpus.py) still gives the
bytes recorded in tests/corpus_digests.json, on a cold and on a warm
decoding cache alike."""

import corpus


def test_corpus_outputs_match_their_recorded_digests(tmp_path):
    # The second run reads files of the same bytes in another directory, so
    # the decoded inputs the first run left in cli's cache serve it.
    for name in ("cold", "warm"):
        workdir = tmp_path / name
        workdir.mkdir()
        changed = corpus.changed_cases(corpus.run_corpus(workdir))
        assert not changed, f"{name}: {len(changed)} corpus cases changed: {changed[:20]}"
