"""Interference sets over a flow set (paper Sections II-III).

Given a :class:`~repro.flows.flowset.FlowSet`, this module computes the
contention geometry every analysis consumes:

* the **contention domain** ``cd_ij = route_i ∩ route_j`` of each flow pair,
  summarised by its size and its position (first/last link order) on each
  of the two routes;
* the **direct interference set** ``S^D_i``: higher-priority flows sharing
  at least one link with τi (Kim et al. / Shi & Burns);
* the **indirect interference set** ``S^I_i``: flows that interfere with a
  member of ``S^D_i`` but not with τi itself;
* Xiong et al.'s partitioning of ``S^I_i ∩ S^D_j`` into the **upstream**
  set ``S^{up_j}_{I_i}`` (τk hits τj before τj meets τi along τj's route)
  and the **downstream** set ``S^{down_j}_{I_i}`` (τk hits τj after).

Internally flows are indexed by priority order (index 0 = highest
priority), so "higher priority than" is simply "smaller index than"; the
public accessors speak flow names.

A structural fact worth noting (asserted in the test suite): every flow in
``S^I_i ∩ S^D_j`` is *strictly* upstream or *strictly* downstream — a flow
whose contention domain with τj overlapped ``cd_ij`` would share a link
with τi and hence be a direct interferer, not an indirect one.

Representation (the analysis kernel's hot path)
-----------------------------------------------
Link ids are dense small integers, so each route is encoded as an integer
**bitmask** (bit ``λ`` set when link ``λ`` is on the route): the pairwise
overlap test of the O(n²) build is a single ``mask_a & mask_b``, and the
contention-domain size is a ``bit_count()``.  Per-flow **position arrays**
(link id → 1-based order on the route, 0 when absent) turn span
computations into list indexing.  All pair geometry lands in flat n×n
tables (``size``/``lo``/``hi`` per route), so the per-pair accessors the
engine hammers are O(1) list lookups with no hashing, and the
lower-priority suffix table used by the non-preemptive blocking term is
built eagerly here rather than lazily on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as _np

from repro.flows.flowset import FlowSet

#: Flow-set size from which the numpy pair-discovery path pays for itself;
#: below it, matrix setup costs more than the plain double loop.
_VECTOR_DISCOVERY_MIN_FLOWS = 64


class _LazyRows:
    """List-of-lists view over an int matrix, materialised row by row.

    The geometry tables are indexed ``table[i][j]`` all over the hot path;
    converting a numpy matrix to nested lists up front pays for every row,
    but early-exiting analyses only ever touch the rows of flows they
    processed.  This keeps ``table[i]`` returning a plain list (cheap
    scalar indexing afterwards) while deferring each row's conversion to
    its first access.
    """

    __slots__ = ("_matrix", "_rows")

    def __init__(self, matrix):
        self._matrix = matrix
        self._rows: list[list[int] | None] = [None] * len(matrix)

    def __getitem__(self, i: int) -> list[int]:
        row = self._rows[i]
        if row is None:
            row = self._matrix[i].tolist()
            self._rows[i] = row
        return row

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other):  # tests compare tables across gears
        return [self[i] for i in range(len(self))] == [
            other[i] for i in range(len(other))
        ]


@dataclass(frozen=True)
class PairGeometry:
    """Summary of the contention domain of one unordered flow pair.

    ``size`` is ``|cd_ij|`` (number of shared links); ``lo_a``/``hi_a`` are
    the 1-based orders of the first/last shared link on the route of the
    pair's lower-indexed flow, ``lo_b``/``hi_b`` on the other route.

    Kept as the public value type for pair geometry
    (:meth:`InterferenceGraph.pair_geometry`); internally the graph stores
    the same numbers in flat per-index tables.
    """

    size: int
    lo_a: int
    hi_a: int
    lo_b: int
    hi_b: int


class InterferenceGraph:
    """All pairwise contention geometry and interference sets of a flow set.

    Construction is O(n² + overlapping pairs · |cd|); the
    upstream/downstream partitions are computed lazily per (τi, τj) pair
    and cached, since the engine only needs them for pairs where τj
    directly interferes with τi.
    """

    def __init__(self, flowset: FlowSet):
        self.flowset = flowset
        flows = flowset.flows
        self._names = [f.name for f in flows]
        self._index = {f.name: idx for idx, f in enumerate(flows)}
        self._routes = [flowset.route(f.name) for f in flows]
        self._direct: list[tuple[int, ...]] = []
        self._direct_sets: list[frozenset[int]] = []
        self._updown_cache: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        #: lazily-built S^D bitmasks over flow indices (see direct_masks).
        self._direct_masks: list[int] | None = None
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        routes = self._routes
        n = len(routes)
        num_links = self.flowset.platform.topology.num_links

        masks: list[int] = []
        for route in routes:
            mask = 0
            for link in route:
                mask |= 1 << link
            masks.append(mask)
        self._link_masks = masks

        # Flat n×n geometry tables: cd size (symmetric) and the 1-based
        # first/last orders of cd_ij on flow i's route (row i, column j).
        # 0 size / 0 lo means "routes disjoint".  Two gears fill them: a
        # matrix-algebra path (numpy, pays off from medium sets up) and a
        # scalar bitmask path (small sets).
        if n >= _VECTOR_DISCOVERY_MIN_FLOWS:
            self._build_tables_vector(routes, n, num_links)
        else:
            self._build_tables_scalar(routes, masks, n, num_links)
        self._direct_sets = [frozenset(members) for members in self._direct]

        # Suffix link table for the non-preemptive blocking term: for each
        # flow, how many of its route links are also used by *lower*
        # priority flows.  One backward pass over the route masks.
        lower_counts = [0] * n
        accumulated = 0
        for index in range(n - 1, -1, -1):
            lower_counts[index] = (masks[index] & accumulated).bit_count()
            accumulated |= masks[index]
        self._lower_shared_counts = lower_counts

    def _build_tables_vector(self, routes, n: int, num_links: int) -> None:
        """Geometry tables via incidence-matrix products (no per-pair loop).

        Let ``B`` be the n×L 0/1 route-incidence matrix and ``P`` the
        matching matrix of 1-based link orders.  Then for every pair at
        once::

            count[a,b]  = (B·Bᵀ)[a,b]      — |cd_ab|
            sum[a,b]    = (P·Bᵀ)[a,b]      — Σ orders of cd links on τa
            sumsq[a,b]  = (P²·Bᵀ)[a,b]     — Σ orders² of cd links on τa

        A set of ``c`` integers with sum ``s`` is the contiguous run
        starting at ``lo = (2s − c(c−1)) / 2c`` **iff** its sum of squares
        equals that run's — any gap strictly increases the sum of squares
        at fixed count and sum.  That turns both the span extraction and
        the dimension-order contiguity check into elementwise integer
        algebra, and the tables come out through one ``tolist()`` each.
        All quantities are bounded by the route length (≤ a few dozen), so
        float32 matmul and int64 algebra are exact.
        """
        incidence_flat = _np.zeros(n * num_links, dtype=_np.float32)
        orders_flat = _np.zeros(n * num_links, dtype=_np.float32)
        flat_index = _np.fromiter(
            (i * num_links + link for i, route in enumerate(routes) for link in route),
            dtype=_np.int64,
        )
        incidence_flat[flat_index] = 1.0
        orders_flat[flat_index] = _np.fromiter(
            (order for route in routes for order in range(1, len(route) + 1)),
            dtype=_np.float32,
        )
        incidence = incidence_flat.reshape(n, num_links)
        orders = orders_flat.reshape(n, num_links)

        transposed = incidence.T.copy()
        count = (incidence @ transposed).astype(_np.int64)
        _np.fill_diagonal(count, 0)
        order_sum = (orders @ transposed).astype(_np.int64)
        order_sumsq = ((orders * orders) @ transposed).astype(_np.int64)

        # Work sparsely from here: the moment algebra only matters at the
        # overlapping entries (both orientations of each pair).
        rows, cols = _np.nonzero(count)
        c = count[rows, cols]
        order_s = order_sum[rows, cols]
        order_q = order_sumsq[rows, cols]
        two_c = 2 * c
        lo_numer = 2 * order_s - c * (c - 1)
        lo = lo_numer // two_c
        run_sumsq = (
            c * lo * lo + lo * c * (c - 1) + (c - 1) * c * (2 * c - 1) // 6
        )
        contiguous = (
            (lo_numer % two_c == 0) & (lo >= 1) & (order_q == run_sumsq)
        )
        if not contiguous.all():
            first_bad = int(_np.nonzero(~contiguous)[0][0])
            bad_a, bad_b = int(rows[first_bad]), int(cols[first_bad])
            self._raise_not_contiguous(min(bad_a, bad_b), max(bad_a, bad_b))

        lo_mat = _np.zeros_like(count)
        lo_mat[rows, cols] = lo
        hi_mat = _np.zeros_like(count)
        hi_mat[rows, cols] = lo + c - 1
        self._cd_size = _LazyRows(count)
        self._cd_lo = _LazyRows(lo_mat)
        self._cd_hi = _LazyRows(hi_mat)

        # S^D rows: for each flow, the higher-priority (smaller-index)
        # flows it shares links with, ascending — sliced per row out of the
        # row-major nonzero structure of the symmetric count matrix.
        row_starts = _np.searchsorted(rows, _np.arange(n + 1))
        direct: list[tuple[int, ...]] = []
        for i in range(n):
            sharing = cols[row_starts[i]:row_starts[i + 1]]
            direct.append(tuple(sharing[: _np.searchsorted(sharing, i)].tolist()))
        self._direct = direct

        # The S^D bitmasks come almost for free here: pack the adjacency
        # rows to bytes and keep the below-diagonal (higher-priority) part.
        packed = _np.packbits(count > 0, axis=1, bitorder="little")
        self._direct_masks = [
            int.from_bytes(packed[i].tobytes(), "little") & ((1 << i) - 1)
            for i in range(n)
        ]

    def _build_tables_scalar(self, routes, masks, n: int, num_links: int) -> None:
        """Geometry tables via the per-pair bitmask loop (small sets)."""
        positions: list[list[int]] = []
        for route in routes:
            pos = [0] * num_links
            for order, link in enumerate(route, start=1):
                pos[link] = order
            positions.append(pos)

        size = [[0] * n for _ in range(n)]
        lo = [[0] * n for _ in range(n)]
        hi = [[0] * n for _ in range(n)]
        direct: list[list[int]] = [[] for _ in range(n)]
        for a in range(n):
            mask_a = masks[a]
            if not mask_a:
                continue
            route_a = routes[a]
            for b in range(a + 1, n):
                shared = mask_a & masks[b]
                if not shared:
                    continue
                pos_b = positions[b]
                count = shared.bit_count()
                # The cd must be a contiguous run on τa's route: locate its
                # first link by scanning, then read the remaining count−1
                # links straight off the route.  Any gap in that window (or
                # the window overrunning the route) means the run is not
                # contiguous — invalid under dimension-order routing.
                start = 0
                for link in route_a:
                    if pos_b[link]:
                        break
                    start += 1
                end = start + count
                if end > len(route_a):
                    self._raise_not_contiguous(a, b)
                lo_b = hi_b = pos_b[route_a[start]]
                for t in range(start + 1, end):
                    order_b = pos_b[route_a[t]]
                    if not order_b:
                        self._raise_not_contiguous(a, b)
                    if order_b < lo_b:
                        lo_b = order_b
                    elif order_b > hi_b:
                        hi_b = order_b
                if hi_b - lo_b + 1 != count:
                    self._raise_not_contiguous(a, b)
                size[a][b] = size[b][a] = count
                lo[a][b], hi[a][b] = start + 1, end
                lo[b][a], hi[b][a] = lo_b, hi_b
                direct[b].append(a)
        self._cd_size = size
        self._cd_lo = lo
        self._cd_hi = hi
        self._direct = [tuple(members) for members in direct]

    def _raise_not_contiguous(self, a: int, b: int) -> None:
        raise ValueError(
            f"contention domain of flows {self._names[a]!r} and "
            f"{self._names[b]!r} is not a contiguous run of links; the "
            "analyses require dimension-order routing"
        )

    def geometry_matrices(self):
        """Dense ``(cd_size, cd_lo, cd_hi)`` as n×n int64 numpy arrays.

        The batched analysis engine (:mod:`repro.core.batch`) derives its
        flat pair/downstream index tables from these with whole-matrix
        algebra instead of per-pair accessor calls.  The vector discovery
        gear hands back its backing matrices, the scalar gear's nested
        lists are converted on the fly.
        """

        def dense(table):
            matrix = getattr(table, "_matrix", None)
            if matrix is not None:
                return matrix
            return _np.array(
                [table[i] for i in range(len(table))], dtype=_np.int64
            )

        return dense(self._cd_size), dense(self._cd_lo), dense(self._cd_hi)

    def pair_geometry(self, i: int, j: int) -> PairGeometry | None:
        """The pair's :class:`PairGeometry` (``None`` when disjoint).

        ``lo_a``/``hi_a`` refer to the lower-indexed flow of the pair,
        matching the unordered-pair convention.
        """
        a, b = (i, j) if i < j else (j, i)
        count = self._cd_size[a][b]
        if count == 0:
            return None
        return PairGeometry(
            size=count,
            lo_a=self._cd_lo[a][b],
            hi_a=self._cd_hi[a][b],
            lo_b=self._cd_lo[b][a],
            hi_b=self._cd_hi[b][a],
        )

    def compatible_with(self, flowset: FlowSet) -> bool:
        """Is this graph valid for ``flowset``?

        The geometry depends only on flows (priorities, endpoints) and
        routes — *not* on buffer depth or latencies — so one graph can be
        shared across platforms differing only in ``buf``/``linkl``/
        ``routl`` (the paper's IBN2-vs-IBN100 comparisons).
        """
        if flowset is self.flowset:
            return True
        mine = self.flowset.platform
        theirs = flowset.platform
        return (
            self.flowset.flows == flowset.flows
            and mine.topology is theirs.topology
            and type(mine.routing) is type(theirs.routing)
        )

    # -- basic geometry -------------------------------------------------------

    def index(self, name: str) -> int:
        """Priority-order index of a flow (0 = highest priority)."""
        return self._index[name]

    def name(self, index: int) -> str:
        """Flow name at a priority-order index."""
        return self._names[index]

    def cd_size_by_index(self, i: int, j: int) -> int:
        """``|cd_ij|`` — number of shared links (0 when disjoint)."""
        return self._cd_size[i][j]

    def cd_size(self, name_i: str, name_j: str) -> int:
        """``|cd_ij|`` by flow names."""
        return self.cd_size_by_index(self._index[name_i], self._index[name_j])

    def cd_links_by_index(self, i: int, j: int) -> tuple[int, ...]:
        """The contention domain's link ids, ordered along τi's route.

        Needed by the heterogeneous-buffer variant of Equation 6 (per-link
        depths); the homogeneous fast path only uses
        :meth:`cd_size_by_index`.
        """
        if self._cd_size[i][j] == 0:
            return ()
        lo, hi = self._cd_lo[i][j], self._cd_hi[i][j]
        return tuple(self._routes[i][lo - 1:hi])

    def cd_links(self, name_i: str, name_j: str) -> tuple[int, ...]:
        """Contention-domain link ids by flow names."""
        return self.cd_links_by_index(self._index[name_i], self._index[name_j])

    def cd_span_on(self, on: int, other: int) -> tuple[int, int]:
        """(first, last) 1-based orders of ``cd`` links on flow ``on``'s route.

        Raises ``ValueError`` when the two routes are disjoint.
        """
        lo = self._cd_lo[on][other]
        if lo == 0:
            raise ValueError(
                f"flows {self._names[on]!r} and {self._names[other]!r} share no links"
            )
        return lo, self._cd_hi[on][other]

    # -- interference sets ------------------------------------------------------

    def direct_by_index(self, i: int) -> tuple[int, ...]:
        """``S^D_i``: indices of higher-priority flows sharing links with τi."""
        return self._direct[i]

    def lower_priority_shared_links(self, i: int) -> int:
        """Number of τi route links also used by *lower*-priority flows.

        Feeds the non-preemptive blocking term for platforms with
        ``linkl > 1`` (see :mod:`repro.core.engine`): on such platforms a
        higher-priority header can stall behind one in-flight
        lower-priority flit on each of these links.  Precomputed in
        :meth:`_build` from the suffix union of route masks.
        """
        return self._lower_shared_counts[i]

    @property
    def updown_cache(self) -> dict:
        """The (i, j) → (upstream, downstream) partition memo table.

        Exposed read-mostly so the per-pair analysis code can probe it
        without a method call; fill misses via :meth:`updown_partition`.
        """
        return self._updown_cache

    @property
    def direct_masks(self) -> list[int]:
        """Per-flow ``S^D_i`` as integer bitmasks over flow *indices*.

        Lets the engine test "does τi directly depend on any flow in this
        set?" with one ``&`` against another index bitmask (taint
        propagation).  Built on first use so pure graph construction does
        not pay for it, then shared by every analysis using this graph.
        """
        masks = self._direct_masks
        if masks is None:
            masks = [
                sum(1 << j for j in members) for members in self._direct
            ]
            self._direct_masks = masks
        return masks

    def direct(self, name: str) -> tuple[str, ...]:
        """``S^D_i`` by flow names."""
        return tuple(self._names[j] for j in self._direct[self._index[name]])

    def indirect_by_index(self, i: int) -> tuple[int, ...]:
        """``S^I_i``: flows interfering with ``S^D_i`` members but not τi."""
        direct = self._direct_sets[i]
        indirect = {
            k
            for j in self._direct[i]
            for k in self._direct[j]
            if k not in direct
        }
        return tuple(sorted(indirect))

    def indirect(self, name: str) -> tuple[str, ...]:
        """``S^I_i`` by flow names."""
        return tuple(self._names[k] for k in self.indirect_by_index(self._index[name]))

    def updown_by_index(
        self, i: int, j: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(S^{up_j}_{I_i}, S^{down_j}_{I_i})`` as index tuples.

        ``j`` must be a direct interferer of ``i``.  A member τk of
        ``S^I_i ∩ S^D_j`` is upstream when its last shared link with τj
        comes before the first link of ``cd_ij`` on τj's route, downstream
        when its first shared link comes after the last link of ``cd_ij``.
        """
        cached = self._updown_cache.get((i, j))
        if cached is not None:
            return cached
        if j not in self._direct_sets[i]:
            raise ValueError(
                f"{self._names[j]!r} is not a direct interferer of {self._names[i]!r}"
            )
        return self.updown_partition(i, j)

    def updown_partition(
        self, i: int, j: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """:meth:`updown_by_index` without the direct-membership check.

        The engine's analyses call this on every direct (i, j) pair —
        validity is guaranteed by construction there — after first
        probing the memo table themselves (bound on the
        :class:`~repro.core.analyses.base.AnalysisContext`).  Empty
        partitions are memoized too, so repeat queries cost one dict hit.
        """
        cached = self._updown_cache.get((i, j))
        if cached is not None:
            return cached
        masks = self.direct_masks
        members = masks[j] & ~(masks[i] | (1 << i))
        if not members:
            result: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
            self._updown_cache[(i, j)] = result
            return result
        return self._updown_fill(i, j, members)

    def _updown_fill(
        self, i: int, j: int, members: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Compute and cache the partition for a known-direct (i, j) pair.

        ``members`` is ``S^I_i ∩ S^D_j`` as an index bitmask (direct
        interferers of τj that are neither direct interferers of τi nor τi
        itself) — iterating its set bits (ascending, matching the ordering
        of ``S^D_j``) visits only the usually-few members instead of
        scanning all of ``S^D_j``.
        """
        lo_row = self._cd_lo[j]
        hi_row = self._cd_hi[j]
        cd_lo = lo_row[i]
        cd_hi = hi_row[i]
        upstream: list[int] = []
        downstream: list[int] = []
        while members:
            low_bit = members & -members
            k = low_bit.bit_length() - 1
            members ^= low_bit
            if hi_row[k] < cd_lo:
                upstream.append(k)
            elif lo_row[k] > cd_hi:
                downstream.append(k)
            else:
                raise AssertionError(
                    f"flow {self._names[k]!r} overlaps cd("
                    f"{self._names[i]!r}, {self._names[j]!r}) on "
                    f"{self._names[j]!r}'s route yet is not a direct "
                    f"interferer of {self._names[i]!r}; contention domains "
                    "are inconsistent"
                )
        result = (tuple(upstream), tuple(downstream))
        self._updown_cache[(i, j)] = result
        return result

    def upstream(self, name_i: str, name_j: str) -> tuple[str, ...]:
        """``S^{up_j}_{I_i}`` by flow names."""
        up, _ = self.updown_by_index(self._index[name_i], self._index[name_j])
        return tuple(self._names[k] for k in up)

    def downstream(self, name_i: str, name_j: str) -> tuple[str, ...]:
        """``S^{down_j}_{I_i}`` by flow names."""
        _, down = self.updown_by_index(self._index[name_i], self._index[name_j])
        return tuple(self._names[k] for k in down)
