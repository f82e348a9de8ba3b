"""Input and output selection policies (Section 6).

When a header flit has several output channels available, an *output
selection policy* picks one.  The paper's simulations use the xy policy —
favor the channel along the lowest dimension.  When several input channels
hold headers waiting for the same output, an *input selection policy*
arbitrates; the paper uses local first-come-first-served, which is fair and
prevents indefinite postponement.

Policies receive a :class:`SelectionContext` so smarter policies (studied
as future work in the paper and in our ablation tests) can inspect
downstream buffer occupancy or draw randomness without the routing layer
depending on the simulator.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.topology.channels import Channel

__all__ = [
    "SelectionContext",
    "OutputSelectionPolicy",
    "XYSelection",
    "RandomSelection",
    "MostFreeSelection",
    "InputSelectionPolicy",
    "FCFSInputSelection",
    "RandomInputSelection",
    "make_output_policy",
    "make_input_policy",
    "is_registered_policy",
]


@dataclass
class SelectionContext:
    """Information a selection policy may consult.

    Attributes:
        free_space: maps a channel to the free flit slots in its
            downstream buffer; the simulator provides this, and analytical
            callers may leave the default (which reports nothing free).
        rng: source of randomness for randomized policies.
        cycle: current simulation time, for time-dependent policies.
    """

    free_space: Callable[[Channel], int] = field(default=lambda channel: 0)
    # Seeded default: the simulator always supplies its own
    # config-seeded RNG, and analytical callers that never pass one get
    # a deterministic stream instead of OS-entropy seeding.
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    cycle: int = 0


class OutputSelectionPolicy(ABC):
    """Chooses one output channel among the available candidates.

    Attributes:
        ranking: when the policy is a pure, context-free ranking of
            channels, a function mapping a channel to its sort key —
            ``select`` must equal ``min(candidates, key=ranking)`` (ties
            to the earliest candidate).  The simulator then pre-ranks
            channels once and skips the ``select`` call on its hot path.
            Context-dependent or randomized policies leave it ``None``.
    """

    name: str = "output-policy"
    ranking: Optional[Callable[[Channel], tuple]] = None

    @abstractmethod
    def select(
        self, candidates: Sequence[Channel], context: SelectionContext
    ) -> Channel:
        """Pick one channel from ``candidates`` (never empty)."""

    def _require(self, candidates: Sequence[Channel]) -> None:
        if not candidates:
            raise ValueError("selection requires at least one candidate")


class XYSelection(OutputSelectionPolicy):
    """The paper's xy policy: favor the channel along the lowest dimension.

    Ties within a dimension (a torus edge node offering both a mesh and a
    wraparound channel west) go to the mesh channel.
    """

    name = "xy"
    ranking = staticmethod(lambda ch: (ch.direction.dim, ch.wraparound))

    def select(
        self, candidates: Sequence[Channel], context: SelectionContext
    ) -> Channel:
        self._require(candidates)
        return min(candidates, key=lambda ch: (ch.direction.dim, ch.wraparound))


class RandomSelection(OutputSelectionPolicy):
    """Pick uniformly at random among the candidates."""

    name = "random"

    def select(
        self, candidates: Sequence[Channel], context: SelectionContext
    ) -> Channel:
        self._require(candidates)
        return context.rng.choice(list(candidates))


class MostFreeSelection(OutputSelectionPolicy):
    """Favor the channel with the most free downstream buffer space.

    Ties fall back to the xy order.  This is the "local congestion"
    style of policy the paper's future-work section points at.
    """

    name = "most-free"

    def select(
        self, candidates: Sequence[Channel], context: SelectionContext
    ) -> Channel:
        self._require(candidates)
        return min(
            candidates,
            key=lambda ch: (-context.free_space(ch), ch.direction.dim, ch.wraparound),
        )


class InputSelectionPolicy(ABC):
    """Orders competing header requests for the same output channel.

    Attributes:
        stateless: whether :meth:`priority` is a pure function of the
            arrival cycle — no randomness, no context dependence — and
            *strictly increasing* in it (an earlier arrival never sorts
            after a later one).  The simulator exploits this to keep the
            waiter list incrementally ordered instead of re-sorting it
            every cycle; policies that draw randomness or invert arrival
            order must leave it False.
    """

    name: str = "input-policy"
    stateless: bool = False

    @abstractmethod
    def priority(self, arrival_cycle: int, context: SelectionContext) -> tuple:
        """Sort key for a request; lower wins."""


class FCFSInputSelection(InputSelectionPolicy):
    """Local first-come-first-served: the header that arrived first wins.

    Fair, and therefore free of indefinite postponement (Section 6).
    """

    name = "fcfs"
    stateless = True

    def priority(self, arrival_cycle: int, context: SelectionContext) -> tuple:
        return (arrival_cycle,)


class RandomInputSelection(InputSelectionPolicy):
    """Arbitrate uniformly at random (an ablation against FCFS)."""

    name = "random-input"

    def priority(self, arrival_cycle: int, context: SelectionContext) -> tuple:
        return (context.rng.random(),)


_OUTPUT_POLICIES = {
    "xy": XYSelection,
    "random": RandomSelection,
    "most-free": MostFreeSelection,
}


def make_output_policy(name: str) -> OutputSelectionPolicy:
    """Construct an output selection policy by name.

    Args:
        name: one of ``"xy"``, ``"random"``, ``"most-free"``.
    """
    try:
        return _OUTPUT_POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(_OUTPUT_POLICIES))
        raise ValueError(f"unknown output policy {name!r}; known: {known}") from None


_INPUT_POLICIES = {
    "fcfs": FCFSInputSelection,
    "random-input": RandomInputSelection,
}


def make_input_policy(name: str) -> InputSelectionPolicy:
    """Construct an input selection policy by name.

    Args:
        name: one of ``"fcfs"``, ``"random-input"``.
    """
    try:
        return _INPUT_POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(_INPUT_POLICIES))
        raise ValueError(f"unknown input policy {name!r}; known: {known}") from None


def is_registered_policy(
    policy: Union[OutputSelectionPolicy, InputSelectionPolicy],
) -> bool:
    """Whether ``policy`` is exactly the stock policy its name registers,
    so that the name alone rebuilds it (a custom instance that borrows a
    stock name does not)."""
    registry = (
        _OUTPUT_POLICIES
        if isinstance(policy, OutputSelectionPolicy)
        else _INPUT_POLICIES
    )
    return type(policy) is registry.get(policy.name)
