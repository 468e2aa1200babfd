"""Deterministic failpoints: seeded, named fault-injection sites.

The durability story of this package — fsynced :class:`RunStore` commits
and a crash-resuming job daemon — promises one thing above all:
*byte-identity under failure*.  Hand-scripted kill tests exercise one
failure point each; this module makes failure a first-class, seeded,
sweepable input instead (the FoundationDB "failpoint" idiom).

A **failpoint** is a named call site threaded through a fragile layer::

    from repro.faults import failpoint

    failpoint("store.fsync")          # may raise an injected OSError
    action = failpoint("store.log.append")
    if action is not None and action.kind == "torn":
        ...                           # site-specific partial write

When no fault plan is installed — the default — every call is a single
module-global ``None`` check and returns immediately: failpoints are
zero-cost in production.  A plan is installed from a **spec string**
(``REPRO_FAULTS`` environment variable or ``--faults`` on the CLI)::

    REPRO_FAULTS="store.log.append:count=1;store.fsync:p=0.5"

Spec grammar (semicolon-separated rules, comma-separated params)::

    spec  := rule (";" rule)*
    rule  := site [":" param ("," param)*]
    param := key "=" value

    keys:
      kind  = what happens when the rule fires (site-specific; see SITES)
      p     = fire probability per evaluation        (default 1.0)
      count = maximum number of fires, then disarm   (default unlimited)
      after = skip the first N evaluations           (default 0)
      ms    = delay in milliseconds for kind=delay   (default 25)
      errno = symbolic errno for kind=error          (default site-specific)

``site`` may end in ``*`` to arm every catalogued site with that prefix
(``store.*`` arms the whole store layer).  Each armed site draws from its
own :class:`random.Random` seeded by ``(plan seed, site name)``, so a
fault schedule **replays exactly**: same spec + same seed → the same
evaluations fire, independent of which other sites are armed and of
``PYTHONHASHSEED``.

Kinds and who performs them:

* ``error`` — the framework raises :class:`InjectedFault` (an ``OSError``
  carrying the configured errno) out of the failpoint call.
* ``crash`` — the framework terminates the process via ``os._exit(137)``,
  mimicking ``kill -9`` at an exact, replayable instruction.
* ``delay`` — the framework sleeps ``ms`` milliseconds, then the site
  continues normally (stalls, not failures).
* ``torn`` — returned to the call site as a :class:`FaultAction`; only
  the site knows how to tear its own append (a shard payload, a chunk-log
  line, a journal line).
"""

from __future__ import annotations

import errno as _errno_mod
import os
import sys
import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional

from repro.exceptions import FaultError

__all__ = [
    "FAULTS_ENV_VAR",
    "FAULTS_SEED_ENV_VAR",
    "SITES",
    "FaultAction",
    "FaultRule",
    "FaultPlan",
    "FaultSite",
    "InjectedFault",
    "crash_now",
    "failpoint",
    "fault_stats",
    "install_faults",
    "install_faults_from_env",
    "parse_faults",
    "uninstall_faults",
]

#: Environment variable holding the fault spec (daemons started as
#: subprocesses inherit the schedule through it).
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Environment variable holding the integer plan seed (default 0).
FAULTS_SEED_ENV_VAR = "REPRO_FAULTS_SEED"

#: Exit code used by ``kind=crash`` — the code a SIGKILLed process reports,
#: so supervisors treat an injected crash exactly like a real one.
CRASH_EXIT_CODE = 137

_VALID_KINDS = ("error", "crash", "delay", "torn")


@dataclass(frozen=True)
class FaultSite:
    """One catalogued failpoint: where it lives and what it can do."""

    name: str
    layer: str
    description: str
    kinds: tuple
    default_kind: str
    default_errno: str = "EIO"


#: The failpoint site catalogue.  Specs may only name sites listed here
#: (misspelled sites would otherwise arm nothing, silently); the chaos
#: harness and ``docs/robustness.md`` enumerate the same table.
SITES: Dict[str, FaultSite] = {
    site.name: site for site in (
        FaultSite(
            "service.journal.append", "service",
            "job journal tears mid-append: half the line reaches disk, "
            "then the daemon dies (torn) or the write errors",
            kinds=("torn", "error"),
            default_kind="torn", default_errno="EIO"),
        FaultSite(
            "service.job.chunk", "service",
            "scheduler worker dies (or errors/stalls) between job chunks",
            kinds=("crash", "error", "delay"),
            default_kind="crash"),
        FaultSite(
            "store.fsync", "store",
            "durable-store fsync fails (disk full by default)",
            kinds=("error",),
            default_kind="error", default_errno="ENOSPC"),
        FaultSite(
            "store.shard.write", "store",
            "shard append tears: a partial chunk payload reaches the shard, "
            "then the write errors before the commit record",
            kinds=("torn", "error"),
            default_kind="torn", default_errno="EIO"),
        FaultSite(
            "store.log.append", "store",
            "chunk-log commit tears: a partial commit line reaches disk, "
            "then the write errors",
            kinds=("torn", "error"),
            default_kind="torn", default_errno="EIO"),
    )
}


class InjectedFault(OSError):
    """The error raised by ``kind=error`` failpoints.

    An ``OSError`` subclass so the hardened layers exercise their *real*
    error paths — a ``store.fsync`` injection with ``errno=ENOSPC`` is
    indistinguishable from a full disk to :class:`RunStore`.
    """

    def __init__(self, number: int, site: str) -> None:
        super().__init__(number, f"injected fault at failpoint {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultAction:
    """What a fired failpoint asks its call site to do.

    Returned from :func:`failpoint` only for the kind the framework
    cannot perform centrally (``torn``); the others (``error``,
    ``crash``, ``delay``) are executed before return.
    """

    site: str
    kind: str
    ms: float = 0.0
    errno: int = _errno_mod.EIO

    def error(self) -> InjectedFault:
        """The injected error a ``torn`` site raises after performing its
        partial write."""
        return InjectedFault(self.errno, self.site)


@dataclass
class FaultRule:
    """One armed site: when it fires and what it does."""

    site: str
    kind: str
    p: float = 1.0
    count: Optional[int] = None
    after: int = 0
    ms: float = 25.0
    errno: int = _errno_mod.EIO

    def spec(self) -> str:
        """Canonical single-rule spec string (inverse of parsing)."""
        params = [f"kind={self.kind}"]
        if self.p < 1.0:
            params.append(f"p={self.p:g}")
        if self.count is not None:
            params.append(f"count={self.count}")
        if self.after:
            params.append(f"after={self.after}")
        if self.kind == "delay":
            params.append(f"ms={self.ms:g}")
        if self.kind == "error":
            params.append(f"errno={_errno_mod.errorcode.get(self.errno, self.errno)}")
        return f"{self.site}:{','.join(params)}"


@dataclass
class _SiteState:
    """Mutable per-site schedule state: the seeded RNG and counters."""

    rule: FaultRule
    rng: Random
    evaluations: int = 0
    fires: int = 0


class FaultPlan:
    """A parsed, seeded fault schedule over concrete failpoint sites.

    Deterministic by construction: each site's RNG is seeded from
    ``(seed, site name)`` and consumed only by that site's probability
    draws, so the fire pattern at one site never depends on which other
    sites are armed or how often they are hit.
    """

    def __init__(self, rules: List[FaultRule], seed: int,
                 source: str) -> None:
        self.seed = seed
        self.source = source
        self._lock = threading.Lock()
        self._states: Dict[str, _SiteState] = {}
        for rule in rules:
            self._states[rule.site] = _SiteState(
                rule=rule, rng=Random(f"{seed}:{rule.site}"))

    # ------------------------------------------------------------------
    def sites(self) -> List[str]:
        """The concrete sites this plan arms, sorted."""
        return sorted(self._states)

    def evaluate(self, site: str) -> Optional[FaultAction]:
        """Decide whether ``site`` fires now; return its action if so."""
        state = self._states.get(site)
        if state is None:
            return None
        rule = state.rule
        with self._lock:
            state.evaluations += 1
            if state.evaluations <= rule.after:
                return None
            if rule.count is not None and state.fires >= rule.count:
                return None
            if rule.p < 1.0 and state.rng.random() >= rule.p:
                return None
            state.fires += 1
        return FaultAction(site=site, kind=rule.kind, ms=rule.ms,
                           errno=rule.errno)

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-site evaluation/fire counters (the soak report body)."""
        with self._lock:
            return {
                site: {
                    "kind": state.rule.kind,
                    "evaluations": state.evaluations,
                    "fires": state.fires,
                }
                for site, state in sorted(self._states.items())
            }


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
def _resolve_sites(pattern: str) -> List[str]:
    if pattern.endswith("*"):
        prefix = pattern[:-1]
        matches = [name for name in SITES if name.startswith(prefix)]
        if not matches:
            raise FaultError(
                f"fault site pattern {pattern!r} matches no known site")
        return sorted(matches)
    if pattern not in SITES:
        raise FaultError(
            f"unknown fault site {pattern!r}; known sites: "
            f"{', '.join(sorted(SITES))}")
    return [pattern]


def _parse_errno(value: str) -> int:
    name = value.strip().upper()
    number = getattr(_errno_mod, name, None)
    if isinstance(number, int):
        return number
    try:
        return int(value)
    except ValueError:
        raise FaultError(
            f"unknown errno {value!r} in fault spec (use a symbolic name "
            f"like ENOSPC or an integer)") from None


def parse_faults(spec: str, seed: int = 0) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`.

    Raises :class:`~repro.exceptions.FaultError` for unknown sites,
    unknown parameters, kinds a site does not support, or malformed
    values — a misspelled spec must never silently arm nothing.
    """
    rules: List[FaultRule] = []
    seen: Dict[str, str] = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        pattern, _, param_text = chunk.partition(":")
        pattern = pattern.strip()
        params: Dict[str, str] = {}
        if param_text.strip():
            for pair in param_text.split(","):
                key, sep, value = pair.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not key or not value:
                    raise FaultError(
                        f"malformed fault parameter {pair.strip()!r} in "
                        f"rule {chunk!r} (expected key=value)")
                params[key] = value
        for site_name in _resolve_sites(pattern):
            if site_name in seen:
                raise FaultError(
                    f"fault site {site_name!r} armed twice (rules "
                    f"{seen[site_name]!r} and {chunk!r})")
            seen[site_name] = chunk
            site = SITES[site_name]
            rule = FaultRule(site=site_name, kind=site.default_kind,
                             errno=_parse_errno(site.default_errno))
            try:
                for key, value in params.items():
                    if key == "kind":
                        if value not in _VALID_KINDS:
                            raise FaultError(
                                f"unknown fault kind {value!r}; valid: "
                                f"{', '.join(_VALID_KINDS)}")
                        rule.kind = value
                    elif key == "p":
                        rule.p = float(value)
                        if not 0.0 <= rule.p <= 1.0:
                            raise FaultError(
                                f"fault probability must be in [0, 1], "
                                f"got {value}")
                    elif key == "count":
                        rule.count = int(value)
                    elif key == "after":
                        rule.after = int(value)
                    elif key == "ms":
                        rule.ms = float(value)
                    elif key == "errno":
                        rule.errno = _parse_errno(value)
                    else:
                        raise FaultError(
                            f"unknown fault parameter {key!r} in rule "
                            f"{chunk!r} (valid: kind, p, count, after, "
                            f"ms, errno)")
            except ValueError as error:
                raise FaultError(
                    f"malformed value in fault rule {chunk!r}: {error}"
                ) from None
            if rule.kind not in site.kinds:
                raise FaultError(
                    f"site {site_name!r} does not support kind "
                    f"{rule.kind!r} (supported: {', '.join(site.kinds)})")
            rules.append(rule)
    return FaultPlan(rules, seed=seed, source=spec)


# ----------------------------------------------------------------------
# the global plan and the failpoint entry
# ----------------------------------------------------------------------
#: The installed plan; ``None`` keeps every failpoint inert and the
#: :func:`failpoint` fast path a single global read + comparison.
_PLAN: Optional[FaultPlan] = None

#: Crash indirection so tests can intercept ``kind=crash`` without dying.
_exit = os._exit


def _crash(action: FaultAction) -> None:
    sys.stderr.write(
        f"repro.faults: injected crash at {action.site} "
        f"(exit {CRASH_EXIT_CODE})\n")
    sys.stderr.flush()
    _exit(CRASH_EXIT_CODE)


def crash_now(action: FaultAction) -> None:
    """Terminate the process on behalf of a site-implemented fault.

    ``torn``-style sites call this after performing their partial write:
    the tear only stays torn if the process dies before the handle is
    used again, exactly like a real crash mid-append.
    """
    _crash(action)


def failpoint(site: str) -> Optional[FaultAction]:
    """Evaluate the failpoint ``site`` against the installed plan.

    Returns ``None`` when no plan is installed (the common case — one
    global check), when the site is not armed, or when its rule does not
    fire this evaluation.  Fired ``error``/``crash``/``delay`` kinds are
    performed here; ``torn`` actions are returned for the call site to
    interpret.
    """
    if _PLAN is None:
        return None
    action = _PLAN.evaluate(site)
    if action is None:
        return None
    if action.kind == "error":
        raise InjectedFault(action.errno, site)
    if action.kind == "crash":
        _crash(action)
    if action.kind == "delay":
        time.sleep(action.ms / 1000.0)
        return None
    return action


def install_faults(spec: Optional[str], seed: int = 0) -> Optional[FaultPlan]:
    """Install ``spec`` as the process-wide fault plan (``None`` clears).

    Returns the installed plan.  Installing replaces any previous plan;
    the per-site schedules restart from evaluation zero.
    """
    global _PLAN
    if spec is None or not spec.strip():
        _PLAN = None
        return None
    _PLAN = parse_faults(spec, seed=seed)
    return _PLAN


def install_faults_from_env(environ=None) -> Optional[FaultPlan]:
    """Install the plan named by ``REPRO_FAULTS``/``REPRO_FAULTS_SEED``.

    Called by every CLI entry point (``run``/``sweep``/``serve``) so
    subprocesses inherit a schedule through the environment.  A malformed
    spec raises :class:`FaultError` rather than arming nothing.
    """
    env = os.environ if environ is None else environ
    spec = env.get(FAULTS_ENV_VAR)
    if not spec:
        return None
    try:
        seed = int(env.get(FAULTS_SEED_ENV_VAR, "0"))
    except ValueError:
        raise FaultError(
            f"{FAULTS_SEED_ENV_VAR} must be an integer, got "
            f"{env.get(FAULTS_SEED_ENV_VAR)!r}") from None
    return install_faults(spec, seed=seed)


def uninstall_faults() -> None:
    """Clear the installed plan; every failpoint goes inert again."""
    global _PLAN
    _PLAN = None


def fault_stats() -> Dict[str, Dict[str, object]]:
    """Per-site counters of the installed plan (empty when inert)."""
    return _PLAN.stats() if _PLAN is not None else {}
