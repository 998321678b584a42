"""Command-line entry point for the experiment harness.

Installed as ``chronos-experiments``.  Examples::

    chronos-experiments --list
    chronos-experiments figure2 --scale smoke --jobs 4
    chronos-experiments all --scale small --seed 1
    chronos-experiments multijob --arrival poisson --load 0.8 \
        --scheduler deadline_edf
    chronos-experiments sweep --spec sweep.json --jobs 4 --cache-dir .cache
    chronos-experiments sweep --spec sweep.json --executor distributed \
        --workers 3 --db queue.sqlite
    chronos-experiments workers start --db queue.sqlite --workers 4
    chronos-experiments workers status --db queue.sqlite
    chronos-experiments workers drain --db queue.sqlite
    chronos-experiments serve --db queue.sqlite --port 8176
    chronos-experiments workers start --broker http://host:8176 --workers 4
    chronos-experiments sweep --spec sweep.json --broker http://host:8176
    chronos-experiments export --db queue.sqlite --csv results.csv
    chronos-experiments serve --db queue.sqlite --token SECRET \
        --certfile cert.pem --keyfile key.pem
    chronos-experiments sweep --spec sweep.json --broker https://host:8176 \
        --token SECRET --cafile cert.pem
    chronos-experiments workers status --broker https://host:8176 --expiring
    chronos-experiments metrics --broker https://host:8176 --token SECRET
    chronos-experiments trace 1a2b3c4d5e6f --db queue.sqlite
    chronos-experiments sweep --spec sweep.json --jobs 4 --progress
    chronos-experiments export --db queue.sqlite --columns fingerprint,pocd,utility
    chronos-experiments search --spec search.json --algorithm frontier_bisect \
        --objective cost --algo-param min_pocd=0.95 --ledger trials.sqlite
    chronos-experiments search --spec search.json --algorithm successive_halving \
        --objective utility --max-trials 40 --broker https://host:8176 --token SECRET

The ``sweep`` command runs a declarative scenario sweep from a JSON file
of the form::

    {
      "base": { "workload": {"kind": "google-trace", "params": {"num_jobs": 50}},
                "strategy": "s-resume" },
      "grid": { "strategy": ["clone", "s-restart", "s-resume"],
                "seed": [0, 1] }
    }

``base`` is a :class:`repro.api.ScenarioSpec` dictionary (or a
``{"kind": "cluster", ...}`` :class:`repro.api.ClusterSpec` one); ``grid`` maps
dotted override paths to value lists (cartesian product), and an optional
``overrides`` list of mappings can be given instead of (or in addition
to) ``grid``.

The ``search`` command explores the same space *adaptively* instead of
exhaustively: its JSON file carries the same ``base`` plus ``axes``
(``grid`` is accepted as an alias), and ``--algorithm`` (required:
``successive_halving`` for the best mean score, ``frontier_bisect`` for
the cheapest PoCD-feasible value) and ``--objective`` pick an ask/tell
algorithm and target metric from the :mod:`repro.adaptive` registries
(``--algo-param KEY=VALUE`` configures the algorithm; ``--ledger FILE``
persists the trial ledger so an interrupted search resumes with zero
re-executed scenarios).  Searches
run on every sweep backend — ``--jobs``, ``--executor``, ``--db``,
``--broker`` and the security flags behave exactly as for ``sweep``.

The ``workers`` command manages a fleet of distributed sweep workers
attached to a queue — a local database (``--db``) or a remote sweep
service (``--broker http://host:port``, see :mod:`repro.service`):
``start`` spawns worker processes that claim queued scenarios under
crash-safe leases (and, with ``--restarts``, replaces crashed members
automatically), ``status`` prints queue/lease/worker state, and
``drain`` asks running workers to exit once no claimable work remains.

``serve`` runs the HTTP broker front-end that makes multi-host fleets
possible, and ``export`` dumps a queue database's result store as CSV
(``--columns`` keeps just the named summary columns).

Sweeps are event driven end to end: ``sweep`` and every harness render a
live progress line (done/total, cache hits, failures, ETA) when stderr
is a terminal — force it with ``--progress`` (CI logs) or silence it
with ``--quiet``.  Ctrl-C mid-``sweep`` prints the *partial* result
before exiting 130; with a ``--cache-dir``, ``--db`` or ``--broker``
the completed scenarios keep their cache/store entries (and a local
queue's unclaimed tasks are released), so re-running the same command
finishes only what is left.  An interrupted harness —
whose tables need every scenario — exits 130 with a one-line notice
instead of a traceback, and its finished scenarios likewise survive in
whatever cache or store the run used.

Security flows through the environment: ``--token``/``--cafile`` (or the
``CHRONOS_TOKEN``/``CHRONOS_CAFILE`` variables they export) authenticate
every client command — ``sweep``, ``workers``, the harnesses — against a
service started with ``serve --token … --certfile … --keyfile …``, and
spawned worker processes inherit the credentials automatically.
Rejected credentials are an exit-2 diagnostic, never a retry loop.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

# The sweep API, the harnesses and the layers below them (numpy, the
# simulator) are imported by the commands that run scenarios, never
# here: ``--list``, ``serve``, ``workers``, ``metrics`` and ``trace``
# simulate nothing and load none of them.
if TYPE_CHECKING:
    from repro.api import SweepEvent
    from repro.experiments.common import ExperimentScale, ExperimentTable

#: ``--scale`` choices: the values of
#: :class:`~repro.experiments.common.ExperimentScale`.
SCALES = ("smoke", "small", "full")

#: ``--executor`` choices: :data:`repro.api.EXECUTORS`.
EXECUTORS = ("inline", "pool", "distributed")


class UnknownExperimentError(KeyError):
    """Unknown experiment name(s); the message lists what is available."""

    def __init__(self, unknown: Sequence[str], available: Iterable[str]):
        self.unknown = tuple(unknown)
        self.available = tuple(available)
        self.message = (
            f"unknown experiments: {', '.join(self.unknown)} "
            f"(available: {', '.join(self.available)}, all)"
        )
        super().__init__(self.message)

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message, adding stray quotes.
        return self.message


def _tables_of(result) -> List[ExperimentTable]:
    """Normalise an experiment result to a flat list of tables."""
    from repro.experiments.common import ExperimentTable

    if isinstance(result, ExperimentTable):
        return [result]
    if isinstance(result, dict):
        return list(result.values())
    raise TypeError(f"unexpected experiment result type: {type(result)!r}")


def _harness(name: str) -> Callable[..., object]:
    """``repro.experiments.<name>.run_<name>``, imported when first called."""

    def run(**options: Any) -> object:
        module = importlib.import_module(f"repro.experiments.{name}")
        return getattr(module, f"run_{name}")(**options)

    run.__name__ = run.__qualname__ = f"run_{name}"
    return run


#: Registry of runnable experiments.
EXPERIMENTS: Dict[str, Callable[..., object]] = {
    name: _harness(name)
    for name in ("figure2", "table1", "table2", "figure3", "figure4", "figure5")
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for ``chronos-experiments``."""
    parser = argparse.ArgumentParser(
        prog="chronos-experiments",
        description="Reproduce the tables and figures of the Chronos paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=(
            "experiment names (figure2, table1, table2, figure3, figure4, figure5), "
            "'all', 'multijob' to run the multi-job cluster experiment "
            "(--arrival/--load/--scheduler), "
            "'sweep' to run a scenario sweep from --spec, "
            "'search' to run an adaptive ask/tell search from --spec, "
            "'workers start|status|drain' to manage distributed sweep workers, "
            "'serve' to run the HTTP broker front-end, "
            "'metrics' to scrape a sweep service's telemetry registry, "
            "'trace FINGERPRINT' to reconstruct one scenario's event trail "
            "from a queue (--db) or service (--broker), or "
            "'export' to dump a queue's result store as CSV"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="small",
        help="experiment scale (smoke: seconds, small: default, full: paper scale)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        help=(
            "random seed (default: 0); 'search' rejects it, because its seeds "
            "are a search axis or the base spec's seed"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent simulations (default: 1, inline)",
    )
    parser.add_argument(
        "--spec",
        help="sweep/search specification JSON file (used by 'sweep' and 'search')",
    )
    parser.add_argument(
        "--arrival",
        choices=["batch", "poisson", "trace"],
        default="poisson",
        help="job arrival model for the 'multijob' experiment (default: poisson)",
    )
    parser.add_argument(
        "--load",
        type=float,
        default=0.8,
        help=(
            "offered load of the 'multijob' scheduler comparison, normalized so "
            "1.0 saturates the shared slot pool (default: 0.8)"
        ),
    )
    parser.add_argument(
        "--scheduler",
        action="append",
        metavar="NAME",
        help=(
            "cluster scheduling policy for 'multijob', repeatable or comma-"
            "separated — fifo, fair, deadline_edf, spec_budget (default: "
            "fifo,deadline_edf,spec_budget; the first drives the load curve)"
        ),
    )
    parser.add_argument(
        "--algorithm",
        help=(
            "ask/tell algorithm the 'search' command requires: "
            "successive_halving (best mean score), frontier_bisect (cheapest "
            "value of one axis with PoCD >= min_pocd), or anything registered "
            "via repro.adaptive.register_algorithm"
        ),
    )
    parser.add_argument(
        "--objective",
        default="utility",
        help=(
            "objective the 'search' command optimizes: utility, pocd, cost, "
            "response_time, machine_time, or anything registered via "
            "repro.adaptive.register_objective (default: utility)"
        ),
    )
    parser.add_argument(
        "--max-trials",
        type=int,
        help="trial budget for 'search' (default: run until the algorithm finishes)",
    )
    parser.add_argument(
        "--trial-batch",
        type=int,
        default=8,
        metavar="N",
        help=(
            "proposals 'search' asks for and executes per round — the fan-out "
            "unit on parallel executors (default: 8)"
        ),
    )
    parser.add_argument(
        "--ledger",
        metavar="FILE",
        help=(
            "sqlite trial ledger for 'search'; persists every trial so an "
            "interrupted search resumes with zero re-executed scenarios "
            "(omit for an in-memory, non-resumable search)"
        ),
    )
    parser.add_argument(
        "--algo-param",
        action="append",
        metavar="KEY=VALUE",
        help=(
            "extra algorithm configuration for 'search', repeatable — e.g. "
            "--algo-param min_pocd=0.95 --algo-param eta=3 (values parse as "
            "JSON, falling back to strings)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        help=(
            "directory of the fingerprint-keyed result cache, kept as "
            "DIR/results.sqlite (used by 'sweep', 'search', 'multijob' and the "
            "experiment harnesses)"
        ),
    )
    parser.add_argument(
        "--csv",
        nargs="?",
        const=True,
        default=False,
        metavar="FILE",
        help=(
            "emit results as CSV instead of an aligned table; with a FILE "
            "argument, write the CSV there (used by 'sweep' and 'export')"
        ),
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        help=(
            "sweep backend: inline, pool (local workers on a throwaway queue), or "
            "distributed (a --db or --broker queue + worker processes); applies to "
            "'sweep' and to the experiment harnesses"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        help=(
            "worker processes for the pool (default: --jobs) and distributed "
            "(default: 3) executors and 'workers start'"
        ),
    )
    parser.add_argument(
        "--db",
        help=(
            "queue database path; for 'sweep' and the harnesses it implies the "
            "distributed executor, and 'workers', 'serve' and 'export' read it; "
            "omitting it gives 'sweep' a throwaway per-run queue"
        ),
    )
    parser.add_argument(
        "--broker",
        metavar="URL",
        help=(
            "http(s)://host:port of a 'chronos-experiments serve' sweep service; an "
            "alternative to --db for 'sweep' and 'workers' that needs no shared "
            "filesystem (multi-host fleets)"
        ),
    )
    parser.add_argument(
        "--token",
        metavar="SECRET",
        help=(
            "bearer token: required of clients by 'serve', sent by 'sweep', 'workers' "
            "and the harnesses (default: the CHRONOS_TOKEN environment variable)"
        ),
    )
    parser.add_argument(
        "--certfile",
        metavar="PEM",
        help="TLS certificate for 'serve'; makes the service an https:// target",
    )
    parser.add_argument(
        "--keyfile",
        metavar="PEM",
        help="TLS private key for 'serve' (omit if the key is inside --certfile)",
    )
    parser.add_argument(
        "--cafile",
        metavar="PEM",
        help=(
            "CA bundle client commands verify an https:// --broker against — for a "
            "self-signed deployment, the server's certificate itself (default: the "
            "CHRONOS_CAFILE environment variable, then the system trust store)"
        ),
    )
    parser.add_argument(
        "--insecure",
        action="store_true",
        help="skip TLS certificate verification of an https:// --broker (testing only)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface the 'serve' command binds (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8176,
        help="port the 'serve' command listens on (default: 8176; 0 picks a free port)",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help=(
            "seconds a worker's task lease survives without a heartbeat (default: 30); "
            "used by 'workers start', 'serve', and by 'sweep', 'search', 'multijob' "
            "and the experiment harnesses when they run distributed"
        ),
    )
    parser.add_argument(
        "--exit-when-idle",
        action="store_true",
        help="make 'workers start' exit once the queue settles instead of polling forever",
    )
    parser.add_argument(
        "--restarts",
        type=int,
        default=3,
        help=(
            "restart tokens per fleet member: crashed members are replaced under a "
            "token bucket (one token back every --restart-refill seconds) with "
            "exponential backoff on crash loops (default: 3; 0 disables restarts)"
        ),
    )
    parser.add_argument(
        "--restart-refill",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds for a fleet member to regain one restart token (default: 30)",
    )
    parser.add_argument(
        "--expiring",
        action="store_true",
        help=(
            "make 'workers status' also report what a lease sweep would do right now "
            "(dry run — nothing is requeued), for debugging stuck leases remotely"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "render a live progress line (done/total, cache hits, failures, ETA) for "
            "'sweep' and the experiment harnesses; the default is on when stderr is a "
            "terminal, off otherwise"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the live progress line even on a terminal",
    )
    parser.add_argument(
        "--columns",
        metavar="COL,COL,...",
        help=(
            "comma-separated summary columns for 'export' (e.g. fingerprint,pocd,utility); "
            "the same cells as the full export"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "make 'metrics' emit the registry's JSON snapshot (via RPC) instead "
            "of the Prometheus text exposition"
        ),
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=1000,
        metavar="N",
        help="maximum event-log rows the 'trace' command fetches (default: 1000)",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    return parser


def progress_enabled(args: argparse.Namespace) -> bool:
    """Whether to render live sweep progress: ``--progress``/``--quiet``
    force it; otherwise it follows whether stderr is a terminal."""
    if args.quiet:
        return False
    if args.progress:
        return True
    try:
        return sys.stderr.isatty()
    except (AttributeError, ValueError):
        return False


class ProgressLine:
    """Render the sweep event stream as a single live progress line.

    Consumes :mod:`repro.api.events` events (one instance handles any
    number of consecutive sweeps — each ``SweepStarted`` resets it) and
    writes ``done/total``, cache hits, failures, retries and an ETA to
    stderr.  On a terminal the line redraws in place; elsewhere (CI logs
    with ``--progress`` forced on) it emits plain, rate-limited lines,
    skipping a line identical to the one before it.

    An adaptive search speaks the same stream plus ``TrialProposed`` /
    ``TrialPruned`` / ``SearchFinished``; the first trial event flips the
    line into search mode (``search done/proposed trials``, prune count).
    """

    def __init__(self, stream=None, min_interval: float = 0.1):
        self._stream = stream if stream is not None else sys.stderr
        try:
            self._tty = self._stream.isatty()
        except (AttributeError, ValueError):
            self._tty = False
        self._min_interval = min_interval
        self._last_render = 0.0
        self._last_width = 0
        self._reset(0)
        # Search counters live outside _reset on purpose: a search stream
        # suppresses its inner batches' SweepStarted frames, so nothing
        # may zero the trial tally mid-run.
        self._search = False
        self._trials = 0
        self._pruned = 0

    def _reset(self, total: int) -> None:
        self._total = total
        self._done = 0
        self._hits = 0
        self._failed = 0
        self._retried = 0
        self._queued: Dict[str, int] = {}
        self._last_line = ""

    def __call__(self, event: SweepEvent) -> None:
        # Dispatched on the event's ``kind`` name, so rendering needs no
        # import of the event classes.
        kind = event.kind
        if kind == "sweep-started":
            self._reset(event.total)
        elif kind == "trial-proposed":
            self._search = True
            self._trials += 1
        elif kind == "trial-pruned":
            self._search = True
            self._pruned += 1
        elif kind == "search-finished":
            self._search = True
            self._trials = event.trials
            self._pruned = event.pruned
            self._render(event.elapsed_s, final=True, cancelled=event.cancelled,
                         stopped=event.stopped)
            return
        elif kind == "scenario-queued":
            # duplicate fingerprints queue once per index but complete
            # once; counting queued indices keeps done/total honest
            self._queued[event.fingerprint] = self._queued.get(event.fingerprint, 0) + 1
        elif kind == "scenario-completed":
            self._done += self._queued.pop(event.fingerprint, 1)
        elif kind == "scenario-cache-hit":
            self._hits += self._queued.pop(event.fingerprint, 1)
        elif kind == "scenario-failed":
            self._failed += 1
        elif kind == "scenario-retried":
            self._retried += 1
        elif kind == "sweep-finished":
            self._render(event.elapsed_s, final=True, cancelled=event.cancelled,
                         stopped=event.stopped)
            return
        now = time.monotonic()
        if now - self._last_render >= self._min_interval:
            self._last_render = now
            self._render(float(getattr(event, "elapsed_s", 0.0)))

    def abort(self) -> None:
        """Terminate a dangling in-place line (sweep died mid-stream).

        A sweep that errors out (scenario failure under the default
        ``on_failure="raise"``, an auth rejection, ...) never emits
        ``SweepFinished``; on a tty the last redraw left the cursor on
        the progress line, and whatever is printed next — a diagnostic,
        a traceback — would be glued onto it.  No-op when the line was
        already finished.
        """
        if self._tty and self._last_width:
            try:
                self._stream.write("\n")
                self._stream.flush()
            except (OSError, ValueError):
                pass
            self._last_width = 0

    def _render(
        self, elapsed_s: float, final: bool = False, cancelled: bool = False,
        stopped: bool = False,
    ) -> None:
        finished = self._done + self._hits
        if self._search:
            parts = [f"search {finished}/{self._trials} trials"]
            if self._pruned:
                parts.append(f"{self._pruned} pruned")
        else:
            parts = [f"sweep {finished}/{self._total}"]
        if self._hits:
            parts.append(f"{self._hits} cached")
        if self._failed:
            parts.append(f"{self._failed} failed")
        if self._retried:
            parts.append(f"{self._retried} retried")
        target = self._trials if self._search else self._total
        remaining = max(0, target - finished - self._failed)
        if final:
            state = "stopped early" if stopped else ("cancelled" if cancelled else "done")
            parts.append(f"{state} in {elapsed_s:.1f}s")
        elif self._done and remaining and elapsed_s > 0:
            # rate from *executed* completions only: cache hits resolve in
            # microseconds and would make a resumed sweep's ETA absurd
            parts.append(f"eta {elapsed_s / self._done * remaining:.0f}s")
        line = "  ".join(parts)
        try:
            if self._tty:
                padding = " " * max(0, self._last_width - len(line))
                self._stream.write("\r" + line + padding + ("\n" if final else ""))
                self._last_width = 0 if final else len(line)
            elif line != self._last_line:
                # rate-limited by time, but a line that says nothing new
                # (a fleet starting its first scenarios) is not repeated
                self._stream.write(line + "\n")
            self._last_line = line
            self._stream.flush()
        except (OSError, ValueError):
            pass  # a closed/broken stderr must never kill the sweep


def run_experiments(
    names: Iterable[str], scale: ExperimentScale, seed: int, **options: Any
) -> List[ExperimentTable]:
    """Run the named experiments and return all produced tables.

    ``options`` are the sweep options every harness passes to its one
    sweep (see :func:`repro.api.run_specs`).
    """
    selected = list(names)
    if not selected or "all" in selected:
        selected = list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        raise UnknownExperimentError(unknown, EXPERIMENTS)
    tables: List[ExperimentTable] = []
    for name in selected:
        tables.extend(_tables_of(EXPERIMENTS[name](scale=scale, seed=seed, **options)))
    return tables


def apply_security_args(args: argparse.Namespace) -> Dict[str, Optional[str]]:
    """Export ``--token``/``--cafile``/``--insecure`` into the environment.

    The credential environment (``CHRONOS_TOKEN`` and friends) is the
    one channel every layer already reads — ``open_broker``/``open_store``
    resolve it per connection, and spawned worker processes inherit it —
    so exporting the flags here secures the whole command, local fleets
    included, without threading parameters through the sweep API.

    Returns the previous values of the touched variables so ``main`` can
    restore them: in-process callers (tests, embedders) must not leak one
    command's credentials onto the next.
    """
    if not (args.token or args.cafile or args.insecure):
        return {}  # nothing to export — and sqlite-only commands stay
        # clear of the HTTP/TLS machinery entirely (lazy-import contract)
    from repro.service import CAFILE_ENV, TOKEN_ENV, VERIFY_ENV

    desired: Dict[str, str] = {}
    if args.token:
        desired[TOKEN_ENV] = args.token
    if args.cafile:
        desired[CAFILE_ENV] = args.cafile
    if args.insecure:
        desired[VERIFY_ENV] = "0"
    previous = {key: os.environ.get(key) for key in desired}
    os.environ.update(desired)
    return previous


def restore_environment(previous: Dict[str, Optional[str]]) -> None:
    """Undo :func:`apply_security_args` (None means "was unset")."""
    for key, value in previous.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


class _UsageError(Exception):
    """A command's exit-2 diagnostic; :func:`main` prints the message."""


def _load_spec_file(args: argparse.Namespace, command: str) -> Tuple[Path, Dict[str, Any]]:
    """Read ``--spec FILE`` for ``sweep``/``search``: a JSON object with a ``base``."""
    if not args.spec:
        raise _UsageError(f"{command} requires --spec FILE (a {command} specification JSON)")
    path = Path(args.spec)
    try:
        payload = json.loads(path.read_text())
    except OSError as error:
        raise _UsageError(f"cannot read {command} spec {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise _UsageError(f"invalid JSON in {path}: {error}") from None
    if not isinstance(payload, dict) or "base" not in payload:
        raise _UsageError(f"{path}: {command} spec must be an object with a 'base' scenario")
    return path, payload


@contextlib.contextmanager
def _sweep_options(args: argparse.Namespace, prefix: str) -> Iterator[Dict[str, Any]]:
    """The sweep options of ``sweep``, ``search``, ``multijob`` and the harnesses.

    ``--jobs``, ``--cache-dir``, ``--executor``, ``--workers``, ``--db``,
    ``--broker`` and ``--lease-timeout`` mean the same for every command
    that runs scenarios, and each renders the live progress line.  The
    options are validated before anything runs or any file is opened: a
    bad combination (``--executor pool --db Q``) or a ``--db`` no queue
    backend opens (``redis://x``) is a ``prefix``-ed exit-2 diagnostic.
    On exit the cache is closed and a progress line left dangling by a
    failed run is ended.
    """
    from repro.api.sweep import _resolve_plan
    from repro.distributed.targets import _check_sqlite_target, is_service_url

    distributed = args.executor == "distributed" or args.broker or args.db
    options: Dict[str, Any] = dict(
        jobs=max(1, args.jobs),
        executor=args.executor,
        workers=args.workers,
        db=args.db,
        broker=args.broker,
        lease_timeout=args.lease_timeout if distributed else None,
    )
    try:
        _resolve_plan(**options)
        if args.db and not is_service_url(args.db):
            _check_sqlite_target(args.db)
    except ValueError as error:
        raise _UsageError(f"{prefix}{error}") from None
    cache = open_cache(args.cache_dir)
    progress = ProgressLine() if progress_enabled(args) else None
    try:
        yield dict(options, cache=cache, on_event=progress)
    finally:
        if progress is not None:
            # a run that died mid-stream left the tty cursor on the
            # progress line; diagnostics must not be glued onto it
            progress.abort()
        if cache is not None:
            cache.close()


def run_sweep_command(args: argparse.Namespace) -> int:
    """Handle ``chronos-experiments sweep --spec FILE``."""
    from repro.api import SpecValidationError, Sweep, spec_from_dict

    path, payload = _load_spec_file(args, "sweep")
    try:
        # Polymorphic: a plain scenario, or {"kind": "cluster", ...}.
        base = spec_from_dict(payload["base"])
        overrides_payload = payload.get("overrides", [])
        if isinstance(overrides_payload, (str, bytes)) or not isinstance(overrides_payload, list):
            raise SpecValidationError("overrides", "must be a list of override mappings")
        overrides = list(overrides_payload)
        grid = payload.get("grid")
        if grid:
            overrides.extend(Sweep.grid_overrides(grid))
        sweep = Sweep(base, overrides or None)
    except SpecValidationError as error:
        raise _UsageError(f"{path}: {error}") from None
    with _sweep_options(args, "sweep: ") as options:
        try:
            result = sweep.run(**options)
        except ValueError as error:
            # e.g. a scenario's own error under on_failure="raise"
            raise _UsageError(f"sweep: {error}") from None
    _emit_result(result, args.csv)
    if result.cancelled:
        # Ctrl-C: the completed partition was printed above; say what is
        # left and exit with the conventional SIGINT status.  The resume
        # hint is only true when the finished work survives somewhere —
        # a cache dir, a durable queue db, or a broker's result store; a
        # bare pool run (or a throwaway per-run queue) keeps nothing.
        durable = bool(args.cache_dir or args.db or args.broker)
        hint = (
            "re-run the same command to complete only those"
            if durable
            else "completed work was not persisted — pass --cache-dir or --db to make "
            "cancelled sweeps resumable"
        )
        print(
            f"sweep cancelled: {len(result.pending)} scenario(s) pending ({hint})",
            file=sys.stderr,
        )
        return 130
    return 0


def open_cache(cache_dir: Optional[str]):
    """The ``--cache-dir`` result store (``DIR/results.sqlite``), or ``None``."""
    if not cache_dir:
        return None
    from repro.distributed import SqliteResultStore

    return SqliteResultStore(Path(cache_dir) / "results.sqlite")


def parse_algo_params(items: Optional[Sequence[str]]) -> Dict[str, object]:
    """Parse repeated ``--algo-param KEY=VALUE`` flags.

    Values go through :func:`json.loads` so numbers, booleans and lists
    arrive typed (``min_pocd=0.95`` → float); anything that is not JSON
    stays a string (``resource_axis=seed``).
    """
    params: Dict[str, object] = {}
    for item in items or []:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"--algo-param expects KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


def run_search_command(args: argparse.Namespace) -> int:
    """Handle ``chronos-experiments search --spec FILE --algorithm NAME``.

    The spec file carries ``base`` (a scenario) and ``axes`` (dotted
    override paths to candidate value lists; ``grid`` is accepted as an
    alias so a sweep spec can be re-pointed at a search unchanged).  The
    search runs on the same executors and security machinery as
    ``sweep``; Ctrl-C prints the partial trial table and, with a
    ``--ledger``, re-running resumes with zero re-executed scenarios.
    ``--algorithm`` has no default: the two built-ins answer different
    questions.  ``--seed`` is an error (exit 2): the seeds are a search
    axis or the base spec's ``seed``.
    """
    if args.seed is not None:
        raise _UsageError(
            "search does not take --seed: put the seeds in 'axes' (\"seed\": [...]) "
            "or set the base spec's \"seed\""
        )
    if args.spec and not args.algorithm:
        # checked before the spec file is read; a missing --spec is
        # reported first, by the loader
        from repro.adaptive import available_algorithms

        raise _UsageError(
            f"search requires --algorithm NAME (available: {', '.join(available_algorithms())})"
        )
    path, payload = _load_spec_file(args, "search")
    axes = payload.get("axes", payload.get("grid"))
    if not isinstance(axes, dict) or not axes:
        raise _UsageError(
            f"{path}: search spec must map 'axes' (or 'grid') to non-empty value lists"
        )
    from repro.adaptive import run_search
    from repro.api import SpecValidationError, UnknownPluginError, spec_from_dict

    try:
        base = spec_from_dict(payload["base"])
    except SpecValidationError as error:
        raise _UsageError(f"{path}: {error}") from None

    with _sweep_options(args, "search: ") as options:
        try:
            result = run_search(
                base,
                axes,
                algorithm=args.algorithm,
                objective=args.objective,
                algorithm_params=parse_algo_params(args.algo_param) or None,
                max_trials=args.max_trials,
                batch=max(1, args.trial_batch),
                ledger=args.ledger,
                **options,
            )
        except (UnknownPluginError, SpecValidationError, ValueError) as error:
            # an unknown --algorithm or --objective name (listing what
            # exists), a malformed --algo-param, axes an algorithm refuses
            # (frontier_bisect needs exactly one multi-valued axis) or a
            # mismatched --ledger
            raise _UsageError(f"search: {error}") from None
    _emit_result(result, args.csv)
    if result.cancelled:
        # Ctrl-C: the settled trials were printed above.  Resumability
        # needs the trial ledger — scenario caches alone cannot restore
        # the algorithm's state.
        hint = (
            "re-run the same command to resume from the ledger"
            if args.ledger
            else "trial state was not persisted — pass --ledger FILE to make "
            "cancelled searches resumable"
        )
        print(f"search cancelled ({hint})", file=sys.stderr)
        return 130
    return 0


def _emit_result(result, csv_option) -> None:
    """Print a sweep/search result as table/CSV, or write CSV to a file.

    Works on anything with ``to_csv``/``to_text`` and ``len`` —
    :class:`repro.api.SweepResult` and ``repro.adaptive.SearchResult``.
    """
    if isinstance(csv_option, str):
        Path(csv_option).write_text(result.to_csv())
        print(f"wrote {len(result)} result row(s) to {csv_option}")
    elif csv_option:
        print(result.to_csv())
    else:
        print(result.to_text())


def run_export_command(args: argparse.Namespace) -> int:
    """Handle ``chronos-experiments export --db FILE --csv OUT``.

    Dumps every result in a queue database's store as the same summary
    rows ``sweep`` prints (``SweepResult.to_rows``), read one stored
    result at a time.  ``--columns COL,COL,...`` keeps just those
    columns of the same rows.
    """
    from repro.api.sweep import SweepResult, _csv_text
    from repro.distributed import SqliteResultStore, normalize_db_path

    if not args.db:
        raise _UsageError("export requires --db FILE (the queue database to read)")
    if not normalize_db_path(args.db).is_file():
        raise _UsageError(f"export: no queue database at {args.db}")
    columns = None
    if args.columns:
        columns = [column.strip() for column in args.columns.split(",") if column.strip()]
    try:
        with SqliteResultStore(args.db) as store:
            rows = store.summary_rows(columns)
    except ValueError as error:
        raise _UsageError(f"export: {error}") from None
    text = _csv_text(columns or SweepResult.COLUMNS, rows)
    if isinstance(args.csv, str):
        Path(args.csv).write_text(text)
        print(f"wrote {len(rows)} result row(s) to {args.csv}")
    else:
        # both forms keep the stdout of earlier releases byte for byte
        print(text, end="" if columns else "\n")
    return 0


def run_serve_command(args: argparse.Namespace) -> int:
    """Handle ``chronos-experiments serve --db FILE --port N``.

    Runs the HTTP broker front-end in the foreground until interrupted.
    Remote fleets (``workers start --broker URL``) and sweeps (``sweep
    --broker URL``) coordinate through it without sharing a filesystem.

    ``--token`` (or ``CHRONOS_TOKEN``) requires a bearer token of every
    client; ``--certfile``/``--keyfile`` serve over TLS, making the
    service an ``https://`` target.
    """
    from repro.distributed import LeasePolicy
    from repro.service import TOKEN_ENV, make_server

    if not args.db:
        raise _UsageError("serve requires --db FILE (the queue database to serve)")
    if args.keyfile and not args.certfile:
        raise _UsageError("serve: --keyfile requires --certfile (the certificate to serve)")
    policy = LeasePolicy(timeout=args.lease_timeout)
    token = args.token or os.environ.get(TOKEN_ENV) or None
    try:
        server = make_server(
            args.db,
            host=args.host,
            port=args.port,
            policy=policy,
            token=token,
            certfile=args.certfile,
            keyfile=args.keyfile,
        )
    except (OSError, ValueError) as error:  # ssl.SSLError is an OSError
        raise _UsageError(f"serve: cannot start service: {error}") from None
    host, port = server.server_address[:2]
    scheme = "https" if args.certfile else "http"
    guard = " (token required)" if token else ""
    print(
        f"serving queue {args.db} at {scheme}://{host}:{port}{guard} (ctrl-c to stop)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("stopping service", file=sys.stderr)
    finally:
        server.server_close()
    return 0


def _queue_target(args: argparse.Namespace, command: str) -> str:
    """The ``--broker URL`` or ``--db FILE`` a queue command reads."""
    target = args.broker or args.db
    if not target:
        raise _UsageError(
            f"{command} requires --db FILE (queue database) or --broker URL (sweep service)"
        )
    return target


def run_workers_command(args: argparse.Namespace) -> int:
    """Handle ``chronos-experiments workers start|status|drain``.

    The queue target is ``--db FILE`` (local/shared-filesystem sqlite) or
    ``--broker URL`` (a remote sweep service) — fleets behave identically
    against either.
    """
    from repro.distributed import (
        LeasePolicy,
        RestartPolicy,
        WorkerPool,
        open_broker,
    )

    actions = ("start", "status", "drain")
    action = args.experiments[1] if len(args.experiments) > 1 else None
    if action not in actions:
        raise _UsageError(
            f"workers requires an action: {', '.join(actions)} "
            "(e.g. 'chronos-experiments workers status --db queue.sqlite')"
        )
    target = _queue_target(args, "workers")
    policy = LeasePolicy(timeout=args.lease_timeout)
    try:
        broker = open_broker(target, policy=policy)
    except ValueError as error:
        # e.g. an unrecognized target scheme
        raise _UsageError(f"workers: {error}") from None
    try:
        if action == "drain":
            broker.drain()
            counts = broker.counts()
            print(
                f"draining {target}: workers will exit once the "
                f"{counts['pending']} pending task(s) are picked up"
            )
            return 0
        if action == "status":
            print(format_worker_status(broker.stats()))
            if args.expiring:
                # Dry run: what a lease sweep would do right now, without
                # doing it — works against remote brokers because the
                # service forwards now/dry_run instead of dropping them.
                requeued, exhausted = broker.requeue_expired(dry_run=True)
                print(
                    f"expiring (dry run): {requeued} lease(s) would requeue, "
                    f"{exhausted} would fail permanently"
                )
            return 0
        # start: run a worker fleet in the foreground until the queue is
        # drained (or settles, with --exit-when-idle), then report.
        # Crashed members are replaced under a per-member token bucket
        # (--restarts tokens, refilling every --restart-refill seconds).
        # The fleet simulates, so the sweep API is loaded once here and
        # every forked member inherits it.
        import repro.api  # noqa: F401

        fleet = max(1, args.workers if args.workers is not None else 3)
        restart_policy = (
            RestartPolicy(burst=args.restarts, refill_s=args.restart_refill)
            if args.restarts > 0
            else None
        )
        pool = WorkerPool(
            target,
            workers=fleet,
            policy=policy,
            exit_when_idle=args.exit_when_idle,
            restart_policy=restart_policy,
        )
        print(f"starting {fleet} worker(s) on {target} (ctrl-c to stop)", flush=True)
        try:
            with pool:
                # Keep supervising while members are pending a rate-limited
                # restart, even if every process is momentarily dead — the
                # bucket refill is what revives a crash-looped fleet.
                while pool.alive_count() > 0 or pool.pending_restarts():
                    for replacement in pool.supervise(broker):
                        print(f"restarted crashed worker as {replacement}", flush=True)
                    time.sleep(0.2)
                pool.join()
        except KeyboardInterrupt:
            print("stopping workers", file=sys.stderr)
        if pool.restarts_used:
            print(f"supervision: replaced {pool.restarts_used} crashed worker(s)")
        print(format_worker_status(broker.stats()))
        return 0
    finally:
        broker.close()


def run_metrics_command(args: argparse.Namespace) -> int:
    """Handle ``chronos-experiments metrics --broker URL [--json]``.

    Fetches the *server's* telemetry registry — Prometheus text from
    ``GET /metrics`` by default, or the JSON snapshot over RPC with
    ``--json``.  Credentials resolve like every other client command
    (``--token``/``--cafile`` or the ``CHRONOS_*`` environment).
    """
    from repro.service import HttpBroker, fetch_metrics

    if not args.broker:
        raise _UsageError(
            "metrics requires --broker URL (a running 'chronos-experiments serve' service)"
        )
    if args.json:
        broker = HttpBroker(args.broker)
        try:
            print(json.dumps(broker.metrics(), indent=2, sort_keys=True))
        finally:
            broker.close()
    else:
        sys.stdout.write(fetch_metrics(args.broker))
    return 0


def run_trace_command(args: argparse.Namespace) -> int:
    """Handle ``chronos-experiments trace FINGERPRINT --db FILE | --broker URL``.

    Reconstructs one scenario's life from the queue's event log: queued
    (with the enqueuing sweep's span context), claimed by which worker,
    retried why, completed or failed — with relative timestamps.
    """
    from repro.distributed import open_broker

    fingerprint = args.experiments[1] if len(args.experiments) > 1 else None
    if not fingerprint:
        raise _UsageError(
            "trace requires a fingerprint "
            "(e.g. 'chronos-experiments trace <fingerprint> --db queue.sqlite')"
        )
    target = _queue_target(args, "trace")
    try:
        broker = open_broker(target)
        try:
            rows = broker.events_for(fingerprint, limit=max(1, args.limit))
        finally:
            broker.close()
    except ValueError as error:
        # e.g. an unrecognized target scheme
        raise _UsageError(f"trace: {error}") from None
    print(format_trace(fingerprint, rows))
    return 0 if rows else 1


def format_trace(fingerprint: str, rows: Sequence[Dict[str, object]]) -> str:
    """Render one fingerprint's event-log rows as a readable trace."""
    from repro.telemetry import parse_span_detail

    if not rows:
        return f"no events recorded for {fingerprint}"
    origin = float(rows[0]["ts"])
    lines = [f"trace {fingerprint} ({len(rows)} event(s))"]
    for row in rows:
        parts = [f"  +{float(row['ts']) - origin:8.3f}s  {str(row['kind']):<10}"]
        if row.get("worker_id"):
            parts.append(f"worker={row['worker_id']}")
        span = parse_span_detail(row.get("detail"))
        if span:
            if span.get("sweep_id"):
                parts.append(f"sweep={span['sweep_id']}")
            if span.get("trial_id"):
                parts.append(f"trial={span['trial_id']}")
            if span.get("note"):
                parts.append(str(span["note"]))
        elif row.get("detail"):
            parts.append(str(row["detail"]))
        lines.append("  ".join(parts))
    return "\n".join(lines)


def format_worker_status(stats: Dict[str, object]) -> str:
    """Render :meth:`repro.distributed.Broker.stats` as readable text."""
    tasks = stats["tasks"]
    lines = [f"queue: {stats['path']}"]
    if stats.get("url"):
        lines.append(f"service: {stats['url']}")
    lines.extend(
        [
            "tasks: " + "  ".join(f"{state}={count}" for state, count in tasks.items()),
            f"results: {stats['results']}",
            f"draining: {'yes' if stats['draining'] else 'no'}",
        ]
    )
    if stats.get("events"):
        # last event-log sequence: `events_since(N)` from here tails live
        line = f"events: {stats['events']} logged"
        retained = stats.get("events_retained")
        if retained is not None:
            # pruning keeps the log bounded; show what is still readable
            first = stats.get("events_first")
            line += f", {retained} retained"
            if retained and first is not None:
                line += f" (seq {first}..{stats['events']})"
        lines.insert(-1, line)
    leased = stats.get("leased") or []
    if leased:
        # Stuck leases are the thing operators look for: attempts climbing
        # or an expiry in the past means a worker died with the task.
        lines.append("leases:")
        for item in leased:
            lines.append(
                f"  {item['fingerprint'][:12]}  worker={item['worker_id']}  "
                f"attempt={item['attempts']}/{item['max_attempts']}  "
                f"expires_in={item['expires_in_s']:.1f}s"
            )
    telemetry = stats.get("telemetry")
    if telemetry:
        # Recent activity from the shared event log (same numbers via
        # --db or --broker): claim/append rates and lease health.
        lines.append(
            "telemetry ({:.0f}s window): claims={} ({:.2f}/s)  "
            "lease_expiries={}  events={} ({:.2f}/s)".format(
                float(telemetry.get("window_s", 0.0)),
                telemetry.get("claims", 0),
                float(telemetry.get("claim_rate_per_s", 0.0)),
                telemetry.get("lease_expiries", 0),
                telemetry.get("events_appended", 0),
                float(telemetry.get("event_append_rate_per_s", 0.0)),
            )
        )
    workers = stats["workers"]
    if workers:
        lines.append("workers:")
        now = time.time()
        for worker in workers:
            age = max(0.0, now - worker["last_seen_at"])
            lines.append(
                f"  {worker['worker_id']}  pid={worker['pid']}  "
                f"last_seen={age:.1f}s ago  tasks_done={worker['tasks_done']}"
            )
    else:
        lines.append("workers: none registered")
    return "\n".join(lines)


def parse_scheduler_args(items: Optional[Sequence[str]]) -> Optional[List[str]]:
    """Flatten repeated/comma-separated ``--scheduler`` flags."""
    if not items:
        return None
    names = [name.strip() for item in items for name in item.split(",")]
    return [name for name in names if name] or None



def _run_tables(
    args: argparse.Namespace,
    produce: Callable[..., List[ExperimentTable]],
    label: str,
    usage_errors: Tuple[type, ...],
    prefix: str,
) -> int:
    """Produce and print experiment tables: the harnesses and ``multijob``.

    ``produce`` receives the command's sweep options (see
    :func:`_sweep_options`) as keyword arguments and passes them to
    every sweep it runs.  ``usage_errors`` (and a rejected executor
    choice) become ``prefix``-ed exit-2 diagnostics.
    """
    started = time.time()
    try:
        with _sweep_options(args, prefix) as options:
            tables = produce(**options)
    except usage_errors as error:
        raise _UsageError(f"{prefix}{error}") from None
    except KeyboardInterrupt:
        # The tables need every scenario, so there is no partial table to
        # print — but the interruption exits cleanly (130, the conventional
        # SIGINT status), not as a traceback.  The sweep layer already
        # returned/kept whatever work had finished.
        print(f"interrupted: {label} stopped mid-sweep", file=sys.stderr)
        return 130
    for table in tables:
        print(table.to_text())
        print()
    print(f"completed {len(tables)} tables in {time.time() - started:.1f}s")
    return 0


def run_multijob_command(args: argparse.Namespace) -> int:
    """Handle ``chronos-experiments multijob --arrival … --load … --scheduler …``.

    Runs the multi-job cluster experiment (scheduler comparison at the
    given load plus the miss-rate-vs-load stability curve) with the
    same sweep options, progress line and security environment as the
    paper harnesses.
    """
    from repro.api import SpecValidationError, UnknownPluginError
    from repro.experiments.common import ExperimentScale
    from repro.experiments.multijob import run_multijob

    return _run_tables(
        args,
        lambda **options: _tables_of(
            run_multijob(
                ExperimentScale(args.scale),
                seed=args.seed,
                arrival=args.arrival,
                load=args.load,
                schedulers=parse_scheduler_args(args.scheduler),
                **options,
            )
        ),
        label="multijob experiment",
        # e.g. an unknown --scheduler name or a non-positive --load
        usage_errors=(SpecValidationError, UnknownPluginError, ValueError),
        prefix="multijob: ",
    )


def run_harness_commands(args: argparse.Namespace) -> int:
    """Run the named experiment harnesses (the default command path)."""
    from repro.experiments.common import ExperimentScale

    return _run_tables(
        args,
        lambda **options: run_experiments(
            args.experiments, scale=ExperimentScale(args.scale), seed=args.seed, **options
        ),
        label="experiment harness",
        usage_errors=(UnknownExperimentError,),
        prefix="",
    )


#: Subcommand -> handler; any other first word names experiment harnesses.
_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "sweep": run_sweep_command,
    "search": run_search_command,
    "workers": run_workers_command,
    "serve": run_serve_command,
    "metrics": run_metrics_command,
    "trace": run_trace_command,
    "export": run_export_command,
    "multijob": run_multijob_command,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: one dispatch and one error boundary for every command.

    Usage errors, rejected or failing sweep services and queue files that
    are not sqlite databases are one-line diagnostics with exit status 2.
    """
    args = build_parser().parse_args(argv)
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    command = args.experiments[0] if args.experiments else "all"
    if args.seed is None and command != "search":
        args.seed = 0
    previous_env = apply_security_args(args)
    try:
        return _COMMANDS.get(command, run_harness_commands)(args)
    except _UsageError as error:
        print(error, file=sys.stderr)
        return 2
    except Exception as error:
        # Each module is already loaded whenever one of its errors was
        # raised, so importing them only here keeps sqlite-only and inline
        # commands clear of the HTTP/TLS layer.
        import sqlite3

        from repro.service import ServiceAuthError, ServiceError

        if isinstance(error, ServiceAuthError):
            print(f"sweep service authentication failed: {error}", file=sys.stderr)
        elif isinstance(error, ServiceError):
            print(f"sweep service error: {error}", file=sys.stderr)
        elif isinstance(error, sqlite3.DatabaseError):
            print(f"{command}: {error}", file=sys.stderr)
        else:
            raise
        return 2
    finally:
        restore_environment(previous_env)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
