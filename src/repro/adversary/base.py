"""The adversary interface.

An adversary is a strategy object with a single decision method,
:meth:`Adversary.act`, called once per round by the network *after* honest
actions are fixed but shown only the :class:`~repro.radio.network.AdversaryView`
(past history + public metadata).  It returns at most ``t`` transmissions on
distinct channels; the network validates the budget and raises
:class:`~repro.errors.ProtocolViolation` on cheating attempts.

**Block plans.**  :meth:`~repro.radio.network.RadioNetwork.execute_schedule`
resolves hop blocks: runs of rounds with one public ``meta``.  An
*oblivious* strategy — one whose moves depend only on the view's public
fields and its private coins, never on what happens inside the block — may
declare :attr:`Adversary.plans_blocks` and draw the whole block's moves on
its first round.  The view then names the round's place in the block
(``view.block_round`` of ``view.block_rounds``, the length after the round
cap, so a plan covers exactly the rounds that run).  :meth:`Adversary.act`
is still called on every round of the block, and the network still checks
every round's moves.  Wrappers such as
:class:`~repro.adversary.budget.BudgetAdversary` do not declare it: a
wrapper may stop calling its inner strategy partway through a block, and an
inner plan would then have drawn coins for rounds it never played.  The
engine therefore hands a block longer than one round only to a top-level
adversary whose *class* declares the flag; everyone else, and every inner
strategy, sees one-round blocks (``block_round == 0``, ``block_rounds ==
1``), exactly as under :meth:`~repro.radio.network.RadioNetwork.
execute_round`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

from ..radio.messages import Transmission

if TYPE_CHECKING:  # pragma: no cover
    from ..radio.network import AdversaryView


class Adversary(abc.ABC):
    """Base class for adversary strategies.

    Subclasses override :meth:`act`.  Strategies that consult past rounds
    must set :attr:`needs_history` to ``True`` so the network refuses to run
    them with trace retention disabled.
    """

    #: Whether this strategy reads ``view.history``.
    needs_history: bool = False

    #: Strategies that consume the view only *inside* :meth:`act` — never
    #: retaining it between rounds — may set this to ``True``; the network
    #: then hands them one shared view whose ``round_index``/``meta`` are
    #: advanced in place each round instead of allocating a fresh view per
    #: round (the ROADMAP "adversary fast path").  ``history`` stays live
    #: either way.  Leave ``False`` for strategies that store views.
    reusable_view: bool = False

    #: Set on the class by oblivious strategies that plan a whole hop block
    #: on its first round (see the module docstring); read from the class.
    plans_blocks: bool = False

    @abc.abstractmethod
    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        """Return this round's transmissions (at most ``view.t``, distinct
        channels).  Implementations must not mutate the view."""

    def reset(self) -> None:
        """Clear any per-execution state; called between independent runs."""
