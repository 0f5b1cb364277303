"""The classical consumer: inject the input, then build the result.

The consumer owns base and step. It reads the iteration count, applies base
to the next probed value, and then folds step over one probed value per
iteration, through the expression nodes' compiled functions. It performs
exactly one inject put and iterations + 2 probe gets, whatever the values
are.
"""

from __future__ import annotations

from .record import Record
from .scheme import Expression, RecursionScheme, check_input, check_variables


class ConsumerConfig(Record):
    __slots__ = _fields = ("base", "step", "x0")

    def __init__(self, base: Expression, step: Expression, x0: int):
        check_variables(base, step)
        check_input(x0)
        self._set(base, step, x0)

    @classmethod
    def from_scheme(cls, scheme: RecursionScheme, x0: int) -> "ConsumerConfig":
        return cls(scheme.base, scheme.step, x0)


def run_consumer(config: ConsumerConfig, inject, probe) -> int:
    """Run the consumer against a channel pair and return the result.

    inject needs put(value), probe needs get() -> value; real channels block
    until a producer services them, scripted stand-ins return immediately.
    """
    get = probe.get
    inject.put(config.x0)
    iterations = get()
    out = config.base.function(get())
    step = config.step.function
    for _ in range(iterations):
        out = step(get(), out)
    return out
