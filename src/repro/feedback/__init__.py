"""The communication-feedback routine (Section 5.3, Figure 1).

After a scheduled transmission round, all nodes must agree on *which channels
were disrupted* — that agreement is what lets every node simulate the same
referee response and keep identical game states (Invariant 1 of Theorem 6).

:func:`run_feedback` implements Figure 1 verbatim: for each feedback slot a
dedicated witness set occupies **every** feedback channel each repetition
(so the adversary can never spoof a ``<true, r>`` frame — it can only
collide), while all other nodes hop randomly and collect reports.

:func:`run_parallel_feedback` implements the Section 5.5 parallel-prefix
merge used when ``C >= 2t^2``, reducing a full invocation to
``O(log^2 n)`` rounds.

Schedule compilation
--------------------
Both routines execute as **compiled schedules** rather than per-round
loops.  The key observation is that Figure 1's repetition loop is
*oblivious* in the paper's own sense: nothing a node transmits or tunes to
during the phase depends on anything observed during the phase.  The
witness of rank ``i`` occupies feedback channel ``i`` in every repetition
(a static transmitter template), and each listener's channel hops are
private coin flips fixed by its RNG stream — so the entire
``slots × repetitions`` loop (and each step of the parallel merge tree)
can be precomputed into :class:`~repro.radio.network.HopBlock` entries —
a template plus one hop row per listener — and submitted to
:meth:`~repro.radio.network.RadioNetwork.execute_schedule` in one call.
The engine resolves channels, never listeners; the routines then test
each listener's hop row against per-channel masks of decoding rounds.

Lemma 5 fidelity: compilation changes no observable of the execution.
The adversary is still consulted every round with the same view (public
metadata plus the trace of completed rounds — the one-round observation
delay is preserved because compiled rounds resolve strictly in sequence),
honest randomness is drawn from the same streams in the same per-stream
order, and per-round resolution follows the identical single-transmitter
decode rule.  Every probabilistic event in Lemma 5's Chernoff argument —
"listener hears the active slot's witness in one repetition with
probability ``>= (C-t)/C``" — therefore has exactly the same distribution,
and seeded runs of the compiled routines and of the historical per-round
loops, kept as oracles in ``tests/oracles/feedback.py``, are
byte-identical (enforced by ``tests/test_feedback_pipeline.py`` and the
golden grid).

Wire encoding
-------------
The parallel merge ships its knowledge frames in the digest/delta encoding
of :class:`~repro.radio.messages.DeltaFrame`.  The historical full-frame
payloads survive as an oracle in ``tests/oracles/feedback.py``;
``tests/test_feedback_delta.py`` is the differential gauntlet proving the
two encodings indistinguishable — identical ``D`` maps, metrics bar the
payload counter, and semantically identical traces — under the whole
adversary gallery.
"""

from .witness import WitnessAssignment, rank
from .protocol import run_feedback
from .parallel import DeltaApplyState, run_parallel_feedback

__all__ = [
    "DeltaApplyState",
    "WitnessAssignment",
    "rank",
    "run_feedback",
    "run_parallel_feedback",
]
