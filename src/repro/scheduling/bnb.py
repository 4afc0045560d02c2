"""Anytime branch-and-bound scheduling: the exact tier's improver kernel.

The force-directed scheduler is a one-shot heuristic; this module is
the repo's *anytime exact* tier.  :class:`AnytimeBnB` starts from the
best heuristic incumbent it can get (a cached FDS schedule when it is
resource-feasible, list scheduling otherwise), then runs an
interruptible depth-first branch and bound that only ever tightens the
incumbent, and terminates with a proof of optimality when the search
space is exhausted or the incumbent meets the lower bound.

Three bound families prune the search:

* **ASAP/ALAP windows** (via :class:`~repro.scheduling.frames.FrameEngine`):
  an unstarted op cannot start before its ASAP step ``lo``, and a state
  at step *s* cannot beat the incumbent *U* unless every unstarted op
  *n* satisfies ``max(ready, lo[n], s) + tdist[n] < U`` — exactly the
  ALAP-window test ``start <= hi`` under target latency ``U - 1``,
  since ``hi = latency - tdist``.
* **Resource work with busy tails**: for each unit type,
  ``U > ceil((remaining_work + sum_of_busy_tails) / units)`` must hold.
* **Russian-doll suffix optima**: the last *k* ops in topological order
  form a sink-ward subgraph whose proved optimum ``rds[k]`` lower-bounds
  any completion once all of them are still unstarted:
  ``U > s + rds[k]``.  The table is built bottom-up by solving the
  nested suffix subproblems exactly (each solve reusing the table built
  so far); only *proved* suffix optima ever enter the table.

The search is sliced (``advance(max_nodes)``) and checkpointable: a
checkpoint records the DFS path as move indices, which is replayable
because move enumeration is a deterministic function of the search
state.  A resumed search therefore *continues* rather than restarts
(the dominance memo is rebuilt from scratch, which can only cost extra
nodes, never correctness).

>>> from repro.graphs.registry import get_graph
>>> from repro.scheduling.resources import ResourceSet
>>> schedule = bnb_anytime_schedule(
...     get_graph("HAL"), ResourceSet.parse("2+/-,2*"))
>>> schedule.length, schedule.meta["bnb"]["proved"]
(7, True)
"""

from __future__ import annotations

import time
from itertools import combinations, product
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.ir.analysis import sink_distances
from repro.ir.dfg import DataFlowGraph
from repro.scheduling.base import Schedule, validate_schedule
from repro.scheduling.frames import FrameEngine
from repro.scheduling.list_scheduler import ListPriority, list_schedule
from repro.scheduling.resources import ResourceSet

#: Format tag of the JSON-safe checkpoint document.
CHECKPOINT_FORMAT = "repro-bnb-checkpoint-v1"

#: Nodes the solver spends on the main graph *before* building the
#: Russian-doll table — easy instances prove here and never pay for
#: the table (every paper benchmark <= 15 ops proves within this).
DEFAULT_PROBE_NODES = 60_000

#: Per-suffix node cap while building the Russian-doll table.  A
#: suffix that exceeds it is abandoned (its unproved incumbent must
#: not enter the table — it is an upper bound, not a lower bound) and
#: the main search runs with the proved prefix.
DEFAULT_RDS_SUFFIX_CAP = 6_000_000

#: Dominance-memo size bound; the memo is cleared (sound, prune-only)
#: when it fills.
DEFAULT_MEMO_LIMIT = 4_000_000

#: Granularity of the slice loop in :func:`bnb_anytime_schedule`.
DEFAULT_SLICE_NODES = 25_000

#: Incumbent trajectory entries kept in schedule metadata.
TRAJECTORY_LIMIT = 32


class _Frame:
    """One node on the explicit DFS stack.

    A frame is *pending* until expanded (``moves is None``); expansion
    performs structural closure, the leaf/bound/memo checks, and move
    enumeration.  ``owned`` lists the ops this frame placed into the
    global start/finish maps (the issue that created it plus its own
    structural closure) so popping can undo them.
    """

    __slots__ = ("step", "busy", "mp", "owned", "readys", "fts", "free",
                 "moves", "idx")

    def __init__(self, step: int, busy: List[int], mp: int,
                 owned: List[str]):
        self.step = step
        self.busy = busy
        self.mp = mp
        self.owned = owned
        self.readys: Optional[Dict[str, int]] = None
        self.fts: Optional[List] = None
        self.free: Optional[Dict] = None
        self.moves: Optional[List] = None
        self.idx = 0


#: Sentinel move: advance time to the next event instead of issuing.
_WAIT = None


class _CoreSearch:
    """Explicit-stack depth-first B&B over one ``(dfg, resources)``.

    Move semantics (shared with the test suite's independent
    reference search, ``tests/scheduling/exact_reference.py``):
    per-step issue decisions are the cartesian product of per-type
    candidate subsets (largest first, candidates by falling sink
    distance), structural/unconstrained ops are placed for free at
    their ready step, multi-cycle ops occupy their unit for
    ``max(1, delay)`` steps, and an empty issue is only allowed while
    something is running (deadlock guard).
    """

    def __init__(
        self,
        dfg: DataFlowGraph,
        resources: ResourceSet,
        ub_length: int,
        ub_times: Dict[str, int],
        rds: Sequence[int] = (),
        lo: Optional[Dict[str, int]] = None,
        hi: Optional[Dict[str, int]] = None,
        memo_limit: int = DEFAULT_MEMO_LIMIT,
    ):
        self.dfg = dfg
        self.resources = resources
        self.order = dfg.topological_order()
        self.n_ops = len(self.order)
        self.pos = {n: i for i, n in enumerate(self.order)}
        self.tdist = sink_distances(dfg)
        self.rds = tuple(rds)
        if lo is None:
            lo = {n: frame[0] for n, frame
                  in FrameEngine(dfg).frames_dict().items()}
        self.lo = lo
        # Hard per-op latest-start bound (window constraints); None means
        # unconstrained.  ``lo`` folds into readiness (see ``_ready_at``),
        # ``hi`` prunes branches in ``_expand``.
        self.hi = hi
        self.fu_of = {
            n: (None if dfg.node(n).op.is_structural
                else resources.fu_for_op(dfg.node(n).op))
            for n in self.order
        }
        # Static per-node structure, precomputed off the hot path.
        self._preds = {
            n: tuple((e.src, e.weight) for e in dfg.in_edges(n))
            for n in self.order
        }
        self._delay = {n: dfg.delay(n) for n in self.order}
        self._occupy = {n: max(1, dfg.delay(n)) for n in self.order}
        self._bit = {n: 1 << i for i, n in enumerate(self.order)}
        self._free_ops = [n for n in self.order if self.fu_of[n] is None]
        # Units are small ints; ``busy`` is a flat list indexed by unit.
        instances = resources.instances()
        self.n_units = len(instances)
        self.units_of: Dict = {}
        for index, unit in enumerate(instances):
            self.units_of.setdefault(unit[0], []).append(index)
        self._count = {ft: resources.count(ft) for ft in self.units_of}
        self.best_length = ub_length
        self.best_times = dict(ub_times)
        self.nodes = 0
        self.exhausted = self.n_ops == 0
        self._start: Dict[str, int] = {}
        self._finish: Dict[str, int] = {}
        self._memo: Dict = {}
        self._memo_limit = memo_limit
        root = _Frame(0, [0] * self.n_units, -1, [])
        self._stack: List[_Frame] = [] if self.exhausted else [root]

    # -- state helpers --------------------------------------------------

    def _ready_at(self, node_id: str) -> Tuple[bool, int]:
        """(all predecessors finished, earliest legal start so far).

        Readiness folds in the hard release bound ``lo`` — without
        window constraints ``lo`` is the plain ASAP step, which any
        reachable state already satisfies, so the clamp is a no-op and
        historical searches are untouched.
        """
        ready = self.lo[node_id]
        complete = True
        finish = self._finish
        for src, weight in self._preds[node_id]:
            done = finish.get(src)
            if done is None:
                complete = False
            elif done + weight > ready:
                ready = done + weight
        return complete, ready

    def _closure(self, frame: _Frame) -> None:
        """Place every ready structural/unconstrained op at this step."""
        step = frame.step
        start, finish = self._start, self._finish
        progressed = True
        while progressed:
            progressed = False
            for n in self._free_ops:
                if n in start:
                    continue
                complete, ready = self._ready_at(n)
                if complete and ready <= step:
                    start[n] = step
                    finish[n] = step + self._delay[n]
                    frame.owned.append(n)
                    if self.pos[n] > frame.mp:
                        frame.mp = self.pos[n]
                    progressed = True

    def _enumerate(self, frame: _Frame, readys: Dict[str, int],
                   startable: Dict) -> None:
        """Materialize this frame's issue decisions (deterministic).

        ``readys``/``startable`` come from the caller's survey pass so
        the unstarted set is walked exactly once per expansion.
        """
        step = frame.step
        busy = frame.busy
        free: Dict = {}
        for ft, units in self.units_of.items():
            idle = [u for u in units if busy[u] <= step]
            if idle:
                free[ft] = idle
        fts = [ft for ft in startable if ft in free]
        per_type = []
        for ft in fts:
            tdist = self.tdist
            candidates = sorted(
                startable[ft], key=lambda n: (-tdist[n], n))
            cap = min(len(free[ft]), len(candidates))
            choices: List[Tuple[str, ...]] = []
            for size in range(cap, 0, -1):
                choices.extend(combinations(candidates, size))
            choices.append(())
            per_type.append(choices)
        anything = any(until > step for until in busy)
        moves: List = []
        if per_type:
            for chosen in product(*per_type):
                if any(chosen):
                    moves.append(chosen)
            if anything:
                moves.append(_WAIT)
        else:
            pending = anything or any(r > step for r in readys.values())
            if pending and (anything or not startable):
                moves.append(_WAIT)
        frame.readys = readys
        frame.fts = fts
        frame.free = free
        frame.moves = moves
        frame.idx = 0

    def _survey(self, frame: _Frame) -> Tuple[Dict[str, int], Dict]:
        """One pass over the unstarted set: ready steps + startables."""
        step = frame.step
        start = self._start
        readys: Dict[str, int] = {}
        startable: Dict = {}
        fu_of = self.fu_of
        for n in self.order:
            if n in start:
                continue
            complete, ready = self._ready_at(n)
            readys[n] = ready
            ft = fu_of[n]
            if ft is not None and complete and ready <= step:
                startable.setdefault(ft, []).append(n)
        return readys, startable

    def _expand(self, frame: _Frame) -> Optional[int]:
        """Full expansion: closure, leaf/bound/memo, then moves.

        Returns an improved incumbent length when the frame completed
        the schedule, else None.  On leaf/prune the frame is popped.
        """
        self._closure(frame)
        step = frame.step
        if self.hi is not None:
            hi = self.hi
            start = self._start
            for n in frame.owned:
                if start[n] > hi[n]:
                    self._pop()
                    return None
        if len(self._start) == self.n_ops:
            length = max(self._finish.values(), default=0)
            improved = None
            if length < self.best_length:
                self.best_length = length
                self.best_times = dict(self._start)
                improved = length
            self._pop()
            return improved

        readys, startable = self._survey(frame)
        bound = max(self._finish.values(), default=0)
        work: Dict = {}
        hi, tdist, fu_of = self.hi, self.tdist, self.fu_of
        occupy = self._occupy
        for n, ready in readys.items():
            if ready < step:
                ready = step
            if hi is not None and ready > hi[n]:
                # An unstarted op can no longer meet its hard latest
                # start: the whole branch is window-infeasible.
                self._pop()
                return None
            if ready + tdist[n] > bound:
                bound = ready + tdist[n]
            ft = fu_of[n]
            if ft is not None:
                work[ft] = work.get(ft, 0) + occupy[n]
        busy = frame.busy
        for ft, rem in work.items():
            tail = 0
            for u in self.units_of[ft]:
                until = busy[u]
                tail += until if until > step else step
            bound = max(bound, -(-(rem + tail) // self._count[ft]))
        if self.rds:
            k = self.n_ops - 1 - frame.mp
            if 0 < k <= len(self.rds):
                if step + self.rds[k - 1] > bound:
                    bound = step + self.rds[k - 1]
        if bound >= self.best_length:
            self._pop()
            return None

        mask = 0
        bit = self._bit
        offsets = []
        for n, r in readys.items():
            mask |= bit[n]
            if r > step:
                offsets.append((self.pos[n], r - step))
        offsets.sort()
        key = (
            mask,
            tuple(offsets),
            tuple(sorted(b - step for b in busy if b > step)),
        )
        prev = self._memo.get(key)
        if prev is not None and prev <= step:
            self._pop()
            return None
        if len(self._memo) >= self._memo_limit:
            self._memo.clear()
        self._memo[key] = step

        self._enumerate(frame, readys, startable)
        return None

    def _apply(self, frame: _Frame) -> None:
        """Apply the frame's next move; push the resulting child."""
        move = frame.moves[frame.idx]
        frame.idx += 1
        step = frame.step
        if move is _WAIT:
            pending = [u for u in frame.busy if u > step]
            pending += [r for r in frame.readys.values() if r > step]
            child = _Frame(max(min(pending), step + 1), list(frame.busy),
                           frame.mp, [])
        else:
            busy = list(frame.busy)
            owned: List[str] = []
            mp = frame.mp
            start, finish = self._start, self._finish
            pos, delay, occupy = self.pos, self._delay, self._occupy
            for group, ft in zip(move, frame.fts):
                unit_iter = iter(frame.free[ft])
                for n in group:
                    busy[next(unit_iter)] = step + occupy[n]
                    start[n] = step
                    finish[n] = step + delay[n]
                    owned.append(n)
                    if pos[n] > mp:
                        mp = pos[n]
            child = _Frame(step + 1, busy, mp, owned)
        self._stack.append(child)

    def _pop(self) -> None:
        frame = self._stack.pop()
        for n in frame.owned:
            del self._start[n]
            del self._finish[n]

    # -- driving --------------------------------------------------------

    def advance(self, max_nodes: int) -> Tuple[List[int], int]:
        """Run up to ``max_nodes`` expansions.

        Returns ``(improvements, nodes_used)`` where improvements is
        the list of successively better incumbent lengths found.
        """
        improvements: List[int] = []
        used = 0
        while self._stack and used < max_nodes:
            frame = self._stack[-1]
            if frame.moves is None:
                used += 1
                self.nodes += 1
                improved = self._expand(frame)
                if improved is not None:
                    improvements.append(improved)
            elif frame.idx < len(frame.moves):
                self._apply(frame)
            else:
                self._pop()
        if not self._stack:
            self.exhausted = True
        return improvements, used

    # -- checkpointing --------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """JSON-safe resumable snapshot of the DFS position."""
        data: Dict[str, Any] = {
            "nodes": self.nodes,
            "best_length": self.best_length,
            "best_times": dict(self.best_times),
        }
        if self.exhausted:
            data["exhausted"] = True
            return data
        path = []
        for depth in range(len(self._stack) - 1):
            path.append(self._stack[depth].idx - 1)
        top = self._stack[-1]
        data["path"] = path
        data["next"] = None if top.moves is None else top.idx
        return data

    @classmethod
    def restore(
        cls,
        dfg: DataFlowGraph,
        resources: ResourceSet,
        data: Dict[str, Any],
        rds: Sequence[int] = (),
        lo: Optional[Dict[str, int]] = None,
        hi: Optional[Dict[str, int]] = None,
        memo_limit: int = DEFAULT_MEMO_LIMIT,
    ) -> "_CoreSearch":
        """Rebuild a search from :meth:`checkpoint` output.

        The DFS path is replayed move-by-move; enumeration is a pure
        function of the reconstructed state, so the replay lands on
        exactly the state that was checkpointed.  The dominance memo
        starts empty (prune-only, so sound).
        """
        best_times = {op: int(s) for op, s in data["best_times"].items()}
        search = cls(dfg, resources, int(data["best_length"]), best_times,
                     rds=rds, lo=lo, hi=hi, memo_limit=memo_limit)
        search.nodes = int(data["nodes"])
        if data.get("exhausted"):
            search.exhausted = True
            search._stack = []
            return search
        try:
            for move_index in data["path"]:
                frame = search._stack[-1]
                search._closure(frame)
                search._enumerate(frame, *search._survey(frame))
                frame.idx = int(move_index)
                if not 0 <= frame.idx < len(frame.moves):
                    raise SchedulingError(
                        "corrupt checkpoint: move index out of range")
                search._apply(frame)
            if data["next"] is not None:
                frame = search._stack[-1]
                search._closure(frame)
                search._enumerate(frame, *search._survey(frame))
                frame.idx = int(data["next"])
                if not 0 <= frame.idx <= len(frame.moves):
                    raise SchedulingError(
                        "corrupt checkpoint: resume index out of range")
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise SchedulingError(f"corrupt bnb checkpoint: {exc}")
        return search


class AnytimeBnB:
    """Interruptible anytime exact scheduler with Russian-doll bounds.

    Phases: a bounded **probe** of the main graph (easy instances prove
    here), then the **rds** table build over nested sink-ward suffix
    subgraphs, then the **main** search armed with the proved table.
    ``advance`` consumes a node budget across whatever phases it
    reaches and reports incumbent/bound improvements as JSON-safe
    event dicts.
    """

    def __init__(
        self,
        dfg: DataFlowGraph,
        resources: ResourceSet,
        seed_times: Optional[Dict[str, int]] = None,
        probe_nodes: int = DEFAULT_PROBE_NODES,
        rds_suffix_cap: int = DEFAULT_RDS_SUFFIX_CAP,
        memo_limit: int = DEFAULT_MEMO_LIMIT,
        checkpoint: Optional[Dict[str, Any]] = None,
        windows: Optional[Dict[str, Tuple[int, int]]] = None,
    ):
        self.dfg = dfg
        self.resources = resources
        self.order = dfg.topological_order()
        self.n_ops = len(self.order)
        self.tdist = sink_distances(dfg)
        self.probe_nodes = probe_nodes
        self.rds_suffix_cap = rds_suffix_cap
        self.memo_limit = memo_limit
        self.windows = dict(windows) if windows else None
        self._hi: Optional[Dict[str, int]] = None
        self._feasible = True
        if not self.n_ops:
            self._lo: Dict[str, int] = {}
            self._horizon = 0
        elif self.windows:
            # Hard windows: frames under a generous horizon so the
            # ALAP side only reflects the window pins (and their
            # backward closure), never an artificial latency cap.
            # The horizon safely exceeds any optimal feasible length:
            # release everything at the latest pin, then run serially.
            occupancy = sum(max(1, dfg.delay(n)) for n in self.order)
            max_hi = max(hi for _lo, hi in self.windows.values())
            self._horizon = max_hi + occupancy + 1
            latency = self._horizon + max(self.tdist.values(), default=0) + 1
            frames = FrameEngine(
                dfg, latency=latency, windows=self.windows
            ).frames_dict()
            self._lo = {n: frame[0] for n, frame in frames.items()}
            self._hi = {n: frame[1] for n, frame in frames.items()}
        else:
            self._lo = {n: frame[0] for n, frame
                        in FrameEngine(dfg).frames_dict().items()}
            self._horizon = 0
        self.static_bound = self._static_bound()
        self.search: Optional[_CoreSearch] = None
        if checkpoint is not None:
            self._restore(checkpoint)
            return
        self.seed_length, self.best_times = self._resolve_seed(seed_times)
        self.best_length = self.seed_length
        self.lower_bound = self.static_bound
        self.nodes_total = 0
        self.proved = False
        self.done = False
        self.phase = "probe"
        self.probe_left = probe_nodes
        self.rds_table: List[int] = []
        self.rds_k = 1
        self._rds_used = 0
        self.trajectory: List[List[int]] = [[0, self.best_length]]
        if self.best_length <= self.lower_bound or self.n_ops == 0:
            self.lower_bound = self.best_length
            self.proved = True
            self.done = True
            self.phase = "done"

    # -- seeding and bounds ---------------------------------------------

    def _static_bound(self) -> int:
        """Root lower bound: critical path and per-type work."""
        bound = 0
        work: Dict = {}
        for n in self.order:
            bound = max(bound, self._lo[n] + self.tdist[n])
            op = self.dfg.node(n).op
            if op.is_structural:
                continue
            ft = self.resources.fu_for_op(op)
            if ft is not None:
                work[ft] = work.get(ft, 0) + max(1, self.dfg.delay(n))
        for ft, rem in work.items():
            bound = max(bound, -(-rem // self.resources.count(ft)))
        return bound

    def _window_feasible(self, times: Dict[str, int]) -> bool:
        """True when every start meets its hard window bounds."""
        if self._hi is None:
            return True
        return all(
            self._lo[op] <= s <= self._hi[op] for op, s in times.items()
        )

    def _resolve_seed(
        self, seed_times: Optional[Dict[str, int]]
    ) -> Tuple[int, Dict[str, int]]:
        """Best resource-feasible incumbent available at startup.

        A supplied seed (typically the cached FDS artifact) is used
        only when it validates under the constraint — force-directed
        schedules are *time*-constrained and may overbook units, and
        an infeasible upper bound would poison every proof.  Under
        hard windows a candidate must also meet every window bound
        (the list heuristics treat ``hi`` as advisory, so their output
        may be rejected here); with no feasible candidate the search
        starts from an above-horizon sentinel and only branch-and-bound
        discoveries — window-feasible by construction — become
        incumbents.
        """
        candidates: List[Tuple[int, Dict[str, int]]] = []
        if seed_times:
            times = {op: int(s) for op, s in seed_times.items()}
            schedule = Schedule(self.dfg, times, resources=self.resources,
                                algorithm="seed")
            problems = validate_schedule(
                schedule, self.resources, check_binding=False,
                raise_on_error=False)
            if not problems and self._window_feasible(times):
                candidates.append((schedule.length, times))
        if self.n_ops:
            for priority in (ListPriority.SINK_DISTANCE,
                             ListPriority.MOBILITY):
                fallback = list_schedule(self.dfg, self.resources, priority,
                                         windows=self.windows)
                times = dict(fallback.start_times)
                if self._window_feasible(times):
                    candidates.append((fallback.length, times))
        if not candidates:
            if self.windows:
                self._feasible = False
                return self._horizon + 1, {}
            return 0, {}
        return min(candidates, key=lambda c: c[0])

    # -- events ----------------------------------------------------------

    def status_event(self, kind: str) -> Dict[str, Any]:
        return {
            "type": kind,
            "length": self.best_length,
            "bound": self.lower_bound,
            "nodes": self.nodes_total,
            "proved": self.proved,
            "phase": self.phase,
        }

    def _record(self, length: int) -> None:
        self.trajectory.append([self.nodes_total, length])
        if len(self.trajectory) > TRAJECTORY_LIMIT:
            # Keep the seed point and the most recent tail.
            del self.trajectory[1]

    def _absorb(self, improvements: List[int],
                events: List[Dict[str, Any]]) -> None:
        for length in improvements:
            if length < self.best_length:
                self.best_length = length
                self.best_times = dict(self.search.best_times)
                self._feasible = True
                self._record(length)
                events.append(self.status_event("incumbent"))
        if not self.done and self.best_length <= self.lower_bound:
            self._prove(events)

    def _prove(self, events: List[Dict[str, Any]]) -> None:
        self.proved = True
        self.done = True
        self.phase = "done"
        self.lower_bound = self.best_length
        self.search = None
        events.append(self.status_event("optimal"))

    # -- the phase machine ----------------------------------------------

    def _suffix_graph(self, k: int) -> DataFlowGraph:
        """The sink-ward subgraph of the last ``k`` topological ops."""
        return self.dfg.subgraph(set(self.order[self.n_ops - k:]))

    def _open_search(self, dfg: DataFlowGraph, rds: Sequence[int],
                     lo: Optional[Dict[str, int]],
                     ub: Optional[Tuple[int, Dict[str, int]]],
                     hi: Optional[Dict[str, int]] = None) -> _CoreSearch:
        if ub is None:
            seed = list_schedule(dfg, self.resources,
                                 ListPriority.SINK_DISTANCE)
            ub = (seed.length, dict(seed.start_times))
        return _CoreSearch(dfg, self.resources, ub[0], ub[1], rds=rds,
                           lo=lo, hi=hi, memo_limit=self.memo_limit)

    def advance(self, max_nodes: int) -> List[Dict[str, Any]]:
        """Spend up to ``max_nodes`` expansions; return new events."""
        events: List[Dict[str, Any]] = []
        remaining = max_nodes
        while remaining > 0 and not self.done:
            if self.phase == "probe":
                remaining = self._advance_probe(remaining, events)
            elif self.phase == "rds":
                remaining = self._advance_rds(remaining, events)
            else:
                remaining = self._advance_main(remaining, events)
        return events

    def _advance_probe(self, remaining: int,
                       events: List[Dict[str, Any]]) -> int:
        if self.search is None:
            self.search = self._open_search(
                self.dfg, (), self._lo, (self.best_length, self.best_times),
                hi=self._hi)
        allowance = min(remaining, self.probe_left)
        improvements, used = self.search.advance(allowance)
        self.nodes_total += used
        self.probe_left -= used
        remaining -= used
        self._absorb(improvements, events)
        if self.done:
            return remaining
        if self.search.exhausted:
            self._prove(events)
        elif self.probe_left <= 0:
            self.search = None
            self.phase = "rds"
        return remaining

    def _advance_rds(self, remaining: int,
                     events: List[Dict[str, Any]]) -> int:
        if self.rds_k > self.n_ops - 1:
            self.search = None
            self.phase = "main"
            return remaining
        if self.search is None:
            self.search = self._open_search(
                self._suffix_graph(self.rds_k), tuple(self.rds_table),
                None, None)
            self._rds_used = 0
        allowance = min(remaining, self.rds_suffix_cap - self._rds_used)
        if allowance <= 0:
            # This suffix blew its cap: its incumbent is an upper
            # bound, never a lower bound, so the table freezes at the
            # proved prefix and the main search takes over.
            self.search = None
            self.phase = "main"
            return remaining
        _, used = self.search.advance(allowance)
        self.nodes_total += used
        self._rds_used += used
        remaining -= used
        if self.search.exhausted:
            self.rds_table.append(self.search.best_length)
            self.rds_k += 1
            self.search = None
            if self.rds_table[-1] > self.lower_bound:
                self.lower_bound = self.rds_table[-1]
                events.append(self.status_event("bound"))
                if self.best_length <= self.lower_bound:
                    self._prove(events)
        return remaining

    def _advance_main(self, remaining: int,
                      events: List[Dict[str, Any]]) -> int:
        if self.search is None:
            self.search = self._open_search(
                self.dfg, tuple(self.rds_table), self._lo,
                (self.best_length, self.best_times), hi=self._hi)
        improvements, used = self.search.advance(remaining)
        self.nodes_total += used
        remaining -= used
        self._absorb(improvements, events)
        if not self.done and self.search.exhausted:
            self._prove(events)
        return remaining

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """JSON-safe snapshot from which :class:`AnytimeBnB` resumes."""
        return {
            "format": CHECKPOINT_FORMAT,
            "phase": self.phase,
            "nodes_total": self.nodes_total,
            "seed_length": self.seed_length,
            "best_length": self.best_length,
            "best_times": dict(self.best_times),
            "lower_bound": self.lower_bound,
            "proved": self.proved,
            "rds": list(self.rds_table),
            "rds_k": self.rds_k,
            "rds_used": self._rds_used,
            "probe_left": self.probe_left,
            "trajectory": [list(point) for point in self.trajectory],
            "search": None if self.search is None
            else self.search.checkpoint(),
        }

    def _restore(self, data: Dict[str, Any]) -> None:
        if data.get("format") != CHECKPOINT_FORMAT:
            raise SchedulingError(
                f"not a {CHECKPOINT_FORMAT} checkpoint "
                f"(format={data.get('format')!r})")
        try:
            self.phase = data["phase"]
            if self.phase not in ("probe", "rds", "main", "done"):
                raise ValueError(f"unknown phase {self.phase!r}")
            self.nodes_total = int(data["nodes_total"])
            self.seed_length = int(data["seed_length"])
            self.best_length = int(data["best_length"])
            self.best_times = {
                op: int(s) for op, s in data["best_times"].items()}
            self.lower_bound = int(data["lower_bound"])
            self.proved = bool(data["proved"])
            self.done = self.phase == "done"
            self.rds_table = [int(v) for v in data["rds"]]
            self.rds_k = int(data["rds_k"])
            self._rds_used = int(data["rds_used"])
            self.probe_left = int(data["probe_left"])
            self.trajectory = [
                [int(a), int(b)] for a, b in data["trajectory"]]
            search_data = data["search"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchedulingError(f"corrupt bnb checkpoint: {exc}")
        if self.windows:
            self._feasible = self.best_length <= self._horizon
        if search_data is None:
            self.search = None
        elif self.phase == "probe":
            self.search = _CoreSearch.restore(
                self.dfg, self.resources, search_data, rds=(),
                lo=self._lo, hi=self._hi, memo_limit=self.memo_limit)
        elif self.phase == "rds":
            self.search = _CoreSearch.restore(
                self._suffix_graph(self.rds_k), self.resources,
                search_data, rds=tuple(self.rds_table),
                memo_limit=self.memo_limit)
        elif self.phase == "main":
            self.search = _CoreSearch.restore(
                self.dfg, self.resources, search_data,
                rds=tuple(self.rds_table), lo=self._lo, hi=self._hi,
                memo_limit=self.memo_limit)
        else:
            self.search = None

    # -- results ----------------------------------------------------------

    def best_schedule(self) -> Schedule:
        """Best-known schedule, with proof state and checkpoint meta.

        Under hard windows, raises :class:`SchedulingError` when no
        window-feasible schedule is known — either the constraints are
        unsatisfiable (search exhausted) or the budget ran out before
        the first feasible incumbent.
        """
        if not self._feasible:
            detail = ("the window constraints are unsatisfiable"
                      if self.done else
                      "no window-feasible schedule found within budget")
            raise SchedulingError(
                f"bnb-anytime: {detail} "
                f"(explored {self.nodes_total} nodes)")
        meta: Dict[str, Any] = {
            "proved": self.proved,
            "lower_bound": self.lower_bound,
            "nodes": self.nodes_total,
            "seed_length": self.seed_length,
            "trajectory": [list(point) for point in self.trajectory],
        }
        if not self.done:
            meta["checkpoint"] = self.checkpoint()
        schedule = Schedule(
            self.dfg,
            dict(self.best_times),
            resources=self.resources,
            algorithm="bnb-anytime",
            meta={"bnb": meta},
        )
        validate_schedule(schedule, self.resources, check_binding=False)
        return schedule


def bnb_anytime_schedule(
    dfg: DataFlowGraph,
    resources: ResourceSet,
    budget: Optional[Dict[str, Any]] = None,
    seed_times: Optional[Dict[str, int]] = None,
    checkpoint: Optional[Dict[str, Any]] = None,
    slice_nodes: int = DEFAULT_SLICE_NODES,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    windows: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Schedule:
    """Run the anytime B&B under an optional budget; return the best.

    ``budget`` accepts ``{"nodes": N, "deadline_ms": M}`` (both
    optional; omitted means unlimited).  ``windows`` optionally pins
    per-op ``(lo, hi)`` start bounds, enforced *hard* — branches that
    cannot meet a bound are pruned, so a proved optimum is optimal
    among window-feasible schedules (and an unsatisfiable window set
    raises once the search exhausts).  The returned schedule's
    ``meta["bnb"]`` carries ``proved``, ``lower_bound``, ``nodes``,
    the incumbent trajectory, and — when the search was interrupted —
    a resumable ``checkpoint``.  A checkpoint must be resumed with the
    same windows it was taken under (the engine keys cache entries on
    the window set, so this holds by construction there).
    """
    budget = budget or {}
    node_budget = budget.get("nodes")
    deadline_ms = budget.get("deadline_ms")
    deadline = (time.monotonic() + deadline_ms / 1000.0
                if deadline_ms else None)
    solver = AnytimeBnB(dfg, resources, seed_times=seed_times,
                        checkpoint=checkpoint, windows=windows)
    while not solver.done:
        if node_budget is not None and solver.nodes_total >= node_budget:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        step = slice_nodes
        if node_budget is not None:
            step = min(step, node_budget - solver.nodes_total)
        events = solver.advance(step)
        if on_event is not None:
            for event in events:
                on_event(event)
    return solver.best_schedule()
