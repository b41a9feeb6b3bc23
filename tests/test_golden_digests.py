"""Golden content digests: generator output pinned across commits.

The other digest tests compare a run only with itself.  These pin the
exact bytes of two generated traces, so a reordering of events, a numpy
scalar leaking into the TSV writer, or a mistake in the origin label table
fails here even when every in-commit comparison still agrees.
"""

import hashlib

import pytest

from repro.gen import generate_trace
from repro.gen.config import presets
from repro.gen.fast import FastGenerator
from repro.graph.stream_io import write_event_stream

GOLDEN = {
    "tiny-7": (
        "cfb06c32f48df73dc459ac00fb98439749cbe8354b4b21b1eaeb5486d0d891a3",
        "05be4ff16f2c00f53eeaa963ac0d993dccfba4b06bb01ca74f1929b0b6a186cd",
    ),
    "tiny_merge-13": (
        "39247e344509a7bcd836311953c3d9c4734c5467b4b85d7ac8ff633d631900be",
        "292a4a0ec194ab35c647b43194a2a9fd66712bf7c55f034b1f73d188ac68a00f",
    ),
}

CASES = {"tiny-7": (presets.tiny, 7), "tiny_merge-13": (presets.tiny_merge, 13)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_store_and_tsv_match_golden(case, tmp_path):
    preset, seed = CASES[case]
    digest, tsv_sha256 = GOLDEN[case]
    stream = generate_trace(preset(), seed=seed)
    assert stream.content_digest() == digest
    manifest = FastGenerator(preset(), seed).generate_to_store(tmp_path / "s.store")
    assert manifest.content_digest == digest
    write_event_stream(stream, tmp_path / "t.tsv")
    assert hashlib.sha256((tmp_path / "t.tsv").read_bytes()).hexdigest() == tsv_sha256
