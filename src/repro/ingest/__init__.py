"""Live trace ingestion: the collector daemon and its client.

The offline pipeline reads finished ``.lila`` files; this package is
the online path that produces them. A long-running
:class:`~repro.ingest.server.IngestServer` accepts framed, compressed
record batches from any number of concurrent
:class:`~repro.ingest.client.TraceClient` sessions, applies explicit
backpressure through bounded per-session queues, spools every acked
record into a per-session LiLa text file
(:class:`~repro.ingest.spool.SessionSpool`). The client has one
lossless delivery path: every record reaches the spool, or a call
raises :class:`~repro.ingest.client.IngestClientError` once its wait
for the daemon runs out. The rolling
episode/pattern analysis of a spool,
:class:`~repro.ingest.incremental.IncrementalSessionAnalyzer`, is what
``lagalyzer ingest tail`` runs. It splits episodes as the batch
analysis does, from the root rows the column builder records as they
close and the root kind of the trace's family, and the trace it seals
analyzes byte-identically to a one-shot analysis of the same records.

See ``docs/ingest.md`` for the protocol and flow-control contract.
"""

from repro.ingest.client import IngestClientError, TraceClient
from repro.ingest.incremental import IncrementalSessionAnalyzer
from repro.ingest.protocol import (
    PROTOCOL_VERSION,
    FrameTooLarge,
    ProtocolError,
)
from repro.ingest.server import IngestServer
from repro.ingest.spool import SessionSpool

__all__ = [
    "PROTOCOL_VERSION",
    "FrameTooLarge",
    "IncrementalSessionAnalyzer",
    "IngestClientError",
    "IngestServer",
    "ProtocolError",
    "SessionSpool",
    "TraceClient",
]
