"""The seeded outputs of ``seeded_record.py`` against the committed record."""

import seeded_record


def test_seeded_outputs_match_the_record():
    got = seeded_record.record(seeded_record.outputs())
    bad = seeded_record.mismatches(seeded_record.load(), got)
    assert not bad, "\n".join(bad)
