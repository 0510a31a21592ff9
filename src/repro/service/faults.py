"""Named failpoints for fault-injection tests (chaos suite, benchmarks).

A *failpoint* is a named hook compiled into a handful of serving-layer
boundaries — shard evaluation, snapshot loading, HTTP request handling,
federation node RPC — that does nothing in production and performs a
scripted fault when armed:

- ``sleep:SECONDS`` — stall (a slow shard / hung worker);
- ``raise`` — raise :class:`FailpointError` (an internal crash; the
  server's catch-all turns it into a 500);
- ``exit[:CODE]`` — ``os._exit`` the process (a worker death the
  supervisor must notice and heal).

Arming
------
Via the environment (inherited by forked supervisor workers)::

    REPRO_FAILPOINTS="shard_eval=sleep:0.05,handler=raise" repro serve ...

or programmatically from tests (:func:`arm` / :func:`disarm`), or from
the CLI (``repro serve --failpoints SPEC``).  Specs are
``name=action[:arg]`` pairs separated by ``,`` or ``;``; only the names
in :data:`POINTS` are accepted, so a typo fails loudly instead of
silently never firing.

Zero-cost discipline
--------------------
Every call site reads the module attribute and performs one pointer
comparison before anything else ::

    from repro.service import faults
    ...
    if faults.ARMED is not None:
        faults.hit("shard_eval")

:data:`ARMED` is ``None`` whenever no failpoint is armed — the disarmed
path costs one attribute load and an ``is`` check, no dict lookups, no
calls.  The ``failpoint-discipline`` lint rule
(:mod:`repro.analysis.rules.failpoint_discipline`) enforces that every
``faults.hit`` call is dominated by that guard and that no failpoint
touchpoint appears inside a ``# lint: hot-path`` function.

Examples
--------
>>> from repro.service import faults
>>> faults.arm("handler=sleep:0.25")
>>> faults.ARMED
{'handler': ('sleep', 0.25)}
>>> faults.disarm()
>>> faults.ARMED is None
True
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Tuple, Union

#: Environment variable holding the arming spec (read at import time, so
#: pre-forked supervisor workers inherit armed failpoints from the parent).
FAILPOINT_ENV = "REPRO_FAILPOINTS"

#: Every failpoint compiled into the tree.  Arming an unknown name is an
#: error: a misspelled spec that "arms" nothing would make a chaos test
#: silently vacuous.  ``node_rpc`` fires inside the federation
#: coordinator's per-node RPC attempt (:mod:`repro.service.federation`),
#: so a chaos test can stall or fail every scatter leg without touching
#: the node processes.
POINTS = frozenset({"shard_eval", "snapshot_load", "handler", "node_rpc"})

_ACTIONS = frozenset({"sleep", "raise", "exit"})

#: The armed table: ``{point: (action, arg)}`` — or None (the production
#: state).  Call sites must guard on ``faults.ARMED is not None`` before
#: calling :func:`hit` (lint-checked).
ARMED: Optional[Dict[str, Tuple[str, float]]] = None


class FailpointError(RuntimeError):
    """The scripted failure of a ``raise`` failpoint.

    Deliberately *not* a :class:`~repro.errors.ReproError`: an injected
    fault simulates an internal crash, and the HTTP layer must answer it
    with a 500 (catch-all), not a 400 (client error).
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected failure at failpoint {point!r}")
        self.point = point


def parse_spec(spec: str) -> Dict[str, Tuple[str, float]]:
    """Parse ``"name=action[:arg],..."`` into an armed table.

    >>> parse_spec("shard_eval=sleep:0.5; handler=exit:3")
    {'shard_eval': ('sleep', 0.5), 'handler': ('exit', 3.0)}
    """
    table: Dict[str, Tuple[str, float]] = {}
    for part in spec.replace(";", ",").split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, action_spec = part.partition("=")
        name = name.strip()
        if not sep:
            raise ValueError(f"failpoint spec {part!r} is not name=action")
        if name not in POINTS:
            raise ValueError(
                f"unknown failpoint {name!r}; known points: {sorted(POINTS)}"
            )
        action, _sep, arg_text = action_spec.strip().partition(":")
        if action not in _ACTIONS:
            raise ValueError(
                f"unknown failpoint action {action!r}; "
                f"known actions: {sorted(_ACTIONS)}"
            )
        if arg_text:
            try:
                arg = float(arg_text)
            except ValueError:
                raise ValueError(f"bad failpoint argument {arg_text!r}")
        else:
            arg = 1.0 if action == "exit" else 0.0
        if action == "sleep" and arg < 0:
            raise ValueError("sleep argument must be >= 0")
        table[name] = (action, arg)
    return table


def arm(spec: Union[str, Dict[str, Tuple[str, float]], None]) -> None:
    """Arm failpoints from a spec string (or a pre-parsed table).

    Passing ``None``, an empty string, or an empty table disarms.
    Validation happens here, before publication, so :data:`ARMED` is
    either ``None`` or a fully valid table — :func:`hit` never has to
    re-validate on the injection path.
    """
    global ARMED
    if spec is None:
        ARMED = None
        return
    table = parse_spec(spec) if isinstance(spec, str) else dict(spec)
    for name, (action, _arg) in table.items():
        if name not in POINTS:
            raise ValueError(f"unknown failpoint {name!r}")
        if action not in _ACTIONS:
            raise ValueError(f"unknown failpoint action {action!r}")
    ARMED = table or None


def disarm() -> None:
    """Return to the production (no-op) state."""
    global ARMED
    ARMED = None


def hit(point: str) -> None:
    """Fire the failpoint ``point`` if it is armed.

    Call sites must pre-check ``faults.ARMED is not None`` — the call
    itself is the *armed* path and may be arbitrarily expensive.
    """
    table = ARMED
    if table is None:
        return
    entry = table.get(point)
    if entry is None:
        return
    action, arg = entry
    if action == "sleep":
        time.sleep(arg)
    elif action == "raise":
        raise FailpointError(point)
    else:  # pragma: no cover - kills the (test worker) process
        os._exit(int(arg))


_env_spec = os.environ.get(FAILPOINT_ENV)
if _env_spec:  # pragma: no cover - exercised via forked workers
    arm(_env_spec)
del _env_spec
