"""World models and stagewise local sensing.

Continuous workspaces are squares [0, L]^2 populated with weighted circular
obstacles; dungeon workspaces carry an occupancy grid instead and expose
circular obstacles fitted on the fly inside each sensing window.  Sensing is
windowed: the agent only ever sees obstacles intersecting an axis-aligned
square around its position, and every window is charged to a coverage raster
so the mapping budget of an episode can be audited afterwards.  Sensed discs
accumulate in an ObstacleMemory as one DiscSet, the arrays every later layer
reads.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DeadEndError(RuntimeError):
    """No obstacle-free opening on any boundary edge of the active stage."""


class OutOfBoundsError(ValueError):
    """Sensing position outside the workspace."""


@dataclass(frozen=True)
class Obstacle:
    """Weighted circular obstacle."""

    center: np.ndarray
    radius: float
    weight: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", c)
        # scalar tests: fitted and perturbed discs are built on the episode path
        if c.shape != (2,) or not (math.isfinite(c[0]) and math.isfinite(c[1])):
            raise ValueError(f"obstacle centre must be two finite numbers, got {c.tolist()}")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"obstacle radius must be > 0 and finite, got {self.radius}")
        if not (self.weight >= 0 and math.isfinite(self.weight)):
            raise ValueError(f"obstacle weight must be >= 0 and finite, got {self.weight}")


def norm2(v) -> float:
    """Euclidean norm of a 1-D vector (an array or a sequence of numbers): the
    square root of the left-to-right sum of squares, in Python floats, so
    portable (no BLAS kernel, whose bits depend on the CPU).  ``row_norms``
    gives rows of fewer than 8 entries the same bits."""
    total = 0.0
    for x in (v.tolist() if isinstance(v, np.ndarray) else v):
        total += x * x
    return math.sqrt(total)


def disc_distances(centers, radii, point) -> np.ndarray:
    """Signed distances from points to the discs of (M, 2) ``centers`` and (M,)
    ``radii``: ``row_norms(centers - point) - radii``, the portable norm
    formula, written out.  One point (2,) gives (M,); a stack of points
    (..., 1, 2) gives (..., M)."""
    d = centers - np.asarray(point, float)
    return np.sqrt(np.add.reduce(d * d, axis=-1)) - radii


def signed_distances(obstacles, point) -> np.ndarray:
    """Euclidean distances from point to the surfaces of a list of obstacles,
    negative inside (``disc_distances`` of their centres and radii)."""
    if not obstacles:
        return np.empty(0)
    centers = np.stack([ob.center for ob in obstacles])
    radii = np.array([ob.radius for ob in obstacles])
    return disc_distances(centers, radii, point)


def row_norms(d) -> np.ndarray:
    """Euclidean norm along the last axis of an (..., k) array: the square
    root of the elementwise squares summed by numpy (``np.add.reduce``, which
    ``ndarray.sum`` calls through a Python wrapper), so portable: no BLAS.
    For k < 8 numpy sums left to right, so each row gets ``norm2``'s bits."""
    d = np.asarray(d, float)
    return np.sqrt(np.add.reduce(d * d, axis=-1))


@dataclass(frozen=True)
class OccupancyGrid:
    """Boolean raster; True cells are walls.  Row index is y, column is x."""

    occupied: np.ndarray
    cell_size: float = 1.0

    def __post_init__(self):
        occ = np.asarray(self.occupied, dtype=bool)
        if occ.ndim != 2 or occ.size == 0:
            raise ValueError("occupancy grid must be a non-empty 2D array")
        object.__setattr__(self, "occupied", occ)

    @property
    def shape(self):
        return self.occupied.shape

    @cached_property
    def cell_sdf(self) -> np.ndarray:
        """``grid_to_sdf(self)``, read-only, computed once per grid object and
        shared by disc fitting, ``grid_sdf_world`` and the clearance raster."""
        sdf = grid_to_sdf(self)
        sdf.flags.writeable = False
        return sdf

    def extent(self):
        """(width, height) in world units."""
        ny, nx = self.occupied.shape
        return nx * self.cell_size, ny * self.cell_size

    @classmethod
    def from_ascii(cls, text: str, cell_size: float = 1.0) -> "OccupancyGrid":
        """Parse ASCII art: '#' occupied, '.' free, one row per line."""
        rows = [line for line in text.splitlines() if line.strip()]
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged ASCII grid")
        occ = np.array([[ch == "#" for ch in row] for row in rows], dtype=bool)
        return cls(occ, cell_size)

    def to_ascii(self) -> str:
        return "\n".join("".join("#" if v else "." for v in row) for row in self.occupied)


@dataclass
class Workspace:
    """Square world [0, L]^2 with circular obstacles or an occupancy grid."""

    side: float
    obstacles: list
    start: np.ndarray
    goal: np.ndarray
    grid: OccupancyGrid | None = None
    seed: int = 0

    def __post_init__(self):
        self.start = np.asarray(self.start, dtype=float)
        self.goal = np.asarray(self.goal, dtype=float)
        self.validate()

    def validate(self):
        L = self.side
        if not (L > 0 and math.isfinite(L)):
            raise ValueError(f"side L must be > 0 and finite, got {L}")
        for name, pt in (("start", self.start), ("goal", self.goal)):
            if pt.shape != (2,) or not np.isfinite(pt).all():
                raise ValueError(f"{name} must be two finite numbers")
            if not (0 <= pt[0] <= L and 0 <= pt[1] <= L):
                raise ValueError(f"{name} {pt} outside [0,{L}]^2")
        for pt in (self.start, self.goal):
            d = signed_distances(self.obstacles, pt)
            if d.size and d.min() < 0:
                raise ValueError("start/goal penetrates an obstacle")
        if self.grid is not None:
            w, h = self.grid.extent()
            if not (np.isclose(w, L) and np.isclose(h, L)):
                raise ValueError(f"grid extent {(w, h)} inconsistent with L={L}")

    def inside(self, point) -> bool:
        return bool(0 <= point[0] <= self.side and 0 <= point[1] <= self.side)


class SharedWorkspace(Workspace):
    """A copy of a workspace that keeps what its plans and episodes would each
    compute alike: ``rasters``, clearance rasters by resolution, and
    ``openings``, ExitSelector's stage-edge openings by stage tiling.  Each
    depends only on the world, the goal and its key, so a kept one holds the
    floats a fresh one would.  ``hamnav eval`` makes one per workspace and
    drops it after that workspace's rows; a copy, it does not see obstacles
    assigned to the original later.
    """

    def __init__(self, ws: Workspace):
        super().__init__(ws.side, list(ws.obstacles), ws.start, ws.goal, grid=ws.grid,
                         seed=ws.seed)
        self.rasters, self.openings = {}, {}


# ---------------------------------------------------------------------------
# JSON round trip

def workspace_to_json(ws: Workspace) -> dict:
    doc = {
        "L": ws.side,
        "obstacles": [
            {"c": [float(o.center[0]), float(o.center[1])], "r": float(o.radius), "w": float(o.weight)}
            for o in ws.obstacles
        ],
        "start": [float(ws.start[0]), float(ws.start[1])],
        "goal": [float(ws.goal[0]), float(ws.goal[1])],
        "seed": int(ws.seed),
    }
    if ws.grid is not None:
        doc["grid"] = {"cell_size": ws.grid.cell_size, "ascii": ws.grid.to_ascii()}
    return doc


def workspace_from_json(doc: dict) -> Workspace:
    grid = None
    if "grid" in doc:
        grid = OccupancyGrid.from_ascii(doc["grid"]["ascii"], doc["grid"].get("cell_size", 1.0))
    return Workspace(
        side=float(doc["L"]),
        obstacles=[Obstacle(np.array(o["c"], float), o["r"], o.get("w", 1.0)) for o in doc["obstacles"]],
        start=doc["start"],
        goal=doc["goal"],
        grid=grid,
        seed=doc.get("seed", 0),
    )


def save_workspace(ws: Workspace, path):
    with open(path, "w") as fh:
        json.dump(workspace_to_json(ws), fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Local sensing

@dataclass
class EnvironmentContext:
    """What one sensing event saw: (id, Obstacle) pairs, ids stable across windows."""

    obstacles: list


@dataclass(frozen=True, eq=False)
class DiscSet:
    """Discs as parallel arrays in ascending id order.

    ``ids`` (M,) int64, ``centers`` (M, 2), ``radii`` (M,) and ``weights``
    (M,).  The sensing memory forms one whenever it changes; the navigator's
    active set is that one under a mask (``discs[mask]``); the energy, the
    ring's contact pass, the training batch and the PF/DWA loop read the
    arrays.  A DiscSet is never modified, so the object stands for its discs.
    """

    ids: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, pairs) -> "DiscSet":
        """The discs of (id, Obstacle) pairs with distinct ids."""
        pairs = sorted(pairs, key=lambda kv: kv[0])
        return cls(np.array([i for i, _ in pairs], dtype=np.int64),
                   np.array([ob.center for _, ob in pairs], dtype=float).reshape(-1, 2),
                   np.array([ob.radius for _, ob in pairs], dtype=float),
                   np.array([ob.weight for _, ob in pairs], dtype=float))

    def __len__(self):
        return len(self.ids)

    @cached_property
    def id_list(self) -> list:
        """``ids`` as a list of ints, formed once."""
        return self.ids.tolist()

    @cached_property
    def rows(self) -> list:
        """(x, y, radius, weight) of each disc in Python floats, formed once:
        the single-state energy reads the discs through them."""
        return [(x, y, r, w) for (x, y), r, w
                in zip(self.centers.tolist(), self.radii.tolist(), self.weights.tolist())]

    def __getitem__(self, mask) -> "DiscSet":
        return DiscSet(self.ids[mask], self.centers[mask], self.radii[mask], self.weights[mask])

    def clearance(self, point) -> float:
        """The least signed distance from point to the discs (inf when there
        are none), as signed_distances gives it."""
        if not len(self.radii):
            return np.inf
        return float(disc_distances(self.centers, self.radii, point).min())

    def nearest(self, point, k) -> list:
        """Ids of the k discs whose surfaces lie nearest point, ties in id
        order: a stable sort by each disc's norm2(center - point) - radius.
        The gaps are ``row_norms``' formula in Python floats over ``rows``,
        ranked by ``sorted`` (stable); a non-finite gap (or a sum of gaps that
        overflows) takes numpy's stable argsort, which ranks a NaN last.  A
        set of at most one disc ranks nothing: both forms give ``id_list[:k]``
        at any point."""
        if len(self.ids) < 2:
            return self.id_list[:k]
        px, py = float(point[0]), float(point[1])
        d = [math.sqrt((x - px) * (x - px) + (y - py) * (y - py)) - r for x, y, r, _ in self.rows]
        if not math.isfinite(sum(d)):
            return self.ids[np.argsort(np.array(d), kind="stable")[:k]].tolist()
        ids = self.id_list
        return [ids[i] for i in sorted(range(len(d)), key=d.__getitem__)[:k]]


class ObstacleMemory:
    """Episode-local memory of sensed discs; ``discs`` is a DiscSet of them all.

    A re-sensed id overwrites its entry, so the disc of the latest sensing
    event is the one served.  ``discs`` is formed again only when an ``add``
    changes an entry, and otherwise stays the same object.
    """

    def __init__(self, pairs=()):
        self._by_id = {}
        self.discs = DiscSet.of(())
        self.add(pairs)

    def add(self, pairs):
        """Store (id, Obstacle) pairs; a later pair for the same id wins."""
        # obstacle-list worlds hand out the same objects on every sensing
        # event, so usually nothing changes
        fresh = {i: ob for i, ob in dict(pairs).items() if self._by_id.get(i) is not ob}
        if fresh:
            self._by_id.update(fresh)
            self.discs = DiscSet.of(self._by_id.items())


def disc_intersects_window(obstacle: Obstacle, center, half_extent) -> bool:
    """Exact disc vs axis-aligned-square test by closest-point clamping, for
    a finite window (sense's always is), in Python floats.

    Per axis the closest point is min(max(o, c - h), c + h): np.clip's
    operands and bits (see StagewiseSensing.refresh), since of two equal
    operands only the sign of a zero can differ and the square drops it.
    Its distance to the centre is norm2's formula, sqrt(dx*dx + dy*dy).
    """
    (ox, oy), (cx, cy), h = obstacle.center.tolist(), map(float, center), float(half_extent)
    dx = min(max(ox, cx - h), cx + h) - ox
    dy = min(max(oy, cy - h), cy + h) - oy
    return math.sqrt(dx * dx + dy * dy) <= obstacle.radius


class CircleRegistry:
    """Stable ids for discs fitted from one grid, keyed by rounded geometry.

    A registry serves one grid (one per episode).  It hands out the first
    object fitted for each id, so windows that share a disc share its object.
    It also keeps every window's fit: the disc cover depends only on the
    window's cell bounds (window_cells) and the fitting parameters, so
    ``fit`` keys its cache on those and hands a repeated window the same
    (id, Obstacle) pairs as its first fit.
    """

    def __init__(self):
        self._ids = {}
        self._obstacles = []
        self._fits = {}

    def intern(self, obstacles) -> list:
        """The ids of ``obstacles`` in order.  A disc is keyed by its centre and
        radius rounded to 6 decimals, all of them in one np.round call."""
        keys = np.round([(*ob.center, ob.radius) for ob in obstacles], 6).tolist()
        ids = []
        for key, ob in zip(keys, obstacles):
            i = self._ids.setdefault(tuple(key), len(self._obstacles))
            if i == len(self._obstacles):
                self._obstacles.append(ob)
            ids.append(i)
        return ids

    def fit(self, grid: OccupancyGrid, window, params) -> list:
        """Interned (id, Obstacle) pairs of extract_circles(grid, window, **params)."""
        key = (window_cells(grid, window), tuple(sorted(params.items())))
        pairs = self._fits.get(key)
        if pairs is None:
            ids = self.intern(extract_circles(grid, window, **params))
            pairs = [(i, self._obstacles[i]) for i in ids]
            self._fits[key] = pairs
        return list(pairs)


def sense(workspace: Workspace, position, half_extent, tracker=None,
          registry=None, circle_params=None) -> EnvironmentContext:
    """Sense the axis-aligned window [position +- half_extent]^2.

    Returns every obstacle whose disc intersects the window.  For dungeon
    workspaces the walls inside the window are first fitted with discs (see
    extract_circles); a registry keeps their indices stable across windows
    and caches each window's fit, so a window with the cell bounds of an
    earlier one (with the same circle_params) is not fitted again and
    returns the earlier fit's pairs and objects (CircleRegistry.fit); without
    one, a fresh registry numbers the window's discs from 0.  The window is
    charged to the coverage tracker when one is given.
    """
    position = np.asarray(position, float)
    if not workspace.inside(position):
        raise OutOfBoundsError(f"sense position {position} outside workspace")
    if workspace.grid is not None:
        registry = CircleRegistry() if registry is None else registry
        pairs = registry.fit(workspace.grid, (position, half_extent), circle_params or {})
    else:
        xy = position.tolist()
        pairs = [(i, ob) for i, ob in enumerate(workspace.obstacles)
                 if disc_intersects_window(ob, xy, half_extent)]
    corrupt = getattr(workspace, "corrupt_context", None)
    if corrupt is not None:
        pairs = corrupt(pairs)
    if tracker is not None:
        tracker.add_window(position, half_extent)
    return EnvironmentContext(pairs)


# ---------------------------------------------------------------------------
# Stage manager

@dataclass
class StageManager:
    """Overlapping rectangular tiling of [0, L]^2.

    Stages overlap by ``overlap`` of their size, and the last row and column
    are shifted back inside the square.  ``r_inflate`` (the clearance an edge
    point needs to count as free) and ``passable_width`` (the opening width
    at which wider stops ranking higher) parametrize the exit openings that
    navigator.ExitSelector cuts from the stage edges.
    """

    side: float
    stage_w: float = 2.6
    stage_h: float = 2.0
    overlap: float = 0.3
    r_inflate: float = 0.2
    passable_width: float = 1.0

    def __post_init__(self):
        step_x = self.stage_w * (1.0 - self.overlap)
        step_y = self.stage_h * (1.0 - self.overlap)
        self.nx = max(1, int(np.ceil((self.side - self.stage_w) / step_x)) + 1) if self.side > self.stage_w else 1
        self.ny = max(1, int(np.ceil((self.side - self.stage_h) / step_y)) + 1) if self.side > self.stage_h else 1
        self.origins_x = np.minimum(np.arange(self.nx) * step_x, max(self.side - self.stage_w, 0.0))
        self.origins_y = np.minimum(np.arange(self.ny) * step_y, max(self.side - self.stage_h, 0.0))
        self._bounds = {}  # (x0, y0, x1, y1) of each stage, Python floats
        for i, x0 in enumerate(self.origins_x.tolist()):
            for j, y0 in enumerate(self.origins_y.tolist()):
                self._bounds[i, j] = (x0, y0, min(x0 + self.stage_w, self.side),
                                      min(y0 + self.stage_h, self.side))

    def stage_bounds(self, index):
        i, j = index
        return self._bounds[i, j]

    def stage_of(self, position, current=None):
        """Active stage: among stages containing position, nearest center.

        With ``current`` given, the current stage is sticky: it stays active
        as long as it still contains the position (hysteresis across the
        overlap bands, which prevents exit flip-flop on shared edges).
        """
        if current is not None and self.contains(current, position):
            return current
        px, py = float(position[0]), float(position[1])
        best, best_d = None, np.inf
        for i in range(self.nx):
            for j in range(self.ny):
                x0, y0, x1, y1 = self.stage_bounds((i, j))
                if x0 - 1e-12 <= px <= x1 + 1e-12 and y0 - 1e-12 <= py <= y1 + 1e-12:
                    d = (px - (x0 + x1) / 2) ** 2 + (py - (y0 + y1) / 2) ** 2
                    if d < best_d:
                        best, best_d = (i, j), d
        if best is None:
            raise OutOfBoundsError(f"position {position} not inside any stage")
        return best

    def contains(self, index, position, pad=1e-12):
        x0, y0, x1, y1 = self.stage_bounds(index)
        return x0 - pad <= position[0] <= x1 + pad and y0 - pad <= position[1] <= y1 + pad


def _free_intervals(length, blocked):
    """Complement of a union of intervals inside [0, length]."""
    events = sorted((max(0.0, a), min(length, b)) for a, b in blocked if b > 0 and a < length)
    free, cursor = [], 0.0
    for a, b in events:
        if a > cursor:
            free.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < length:
        free.append((cursor, length))
    return free


def _edge_blocked_intervals(p0, p1, workspace, r_inflate):
    """Blocked sub-intervals of segment p0->p1 (circles or grid walls, inflated)."""
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    axis = p1 - p0
    length = norm2(axis)
    u = axis / length
    blocked = []
    if workspace.grid is not None:
        sdf = grid_sdf_world(workspace.grid)
        n = max(8, int(np.ceil(length / (workspace.grid.cell_size * 0.5))))
        ts = np.linspace(0.0, length, n + 1)
        pts = p0[None, :] + ts[:, None] * u[None, :]
        clear = sdf(pts)
        bad = clear < r_inflate
        i = 0
        while i <= n:
            if bad[i]:
                j = i
                while j <= n and bad[j]:
                    j += 1
                blocked.append((ts[i] - length / n / 2, ts[min(j, n)] + length / n / 2))
                i = j
            else:
                i += 1
    else:
        ux, uy = u.tolist()
        for ob in workspace.obstacles:
            r = ob.radius + r_inflate
            wx, wy = (ob.center - p0).tolist()
            t0 = wx * ux + wy * uy
            h2 = (wx * wx + wy * wy) - t0 * t0
            if h2 < r * r:
                half = math.sqrt(r * r - h2)
                blocked.append((t0 - half, t0 + half))
    return length, blocked


# ---------------------------------------------------------------------------
# Coverage accounting

class CoverageTracker:
    """Raster accounting of sensed area; monotone over an episode."""

    def __init__(self, side: float, cell: float):
        self.side = float(side)
        self.n = max(1, int(round(self.side / cell)))
        self.cell = self.side / self.n
        self.covered = np.zeros((self.n, self.n), dtype=bool)
        self.windows = []
        centers = (np.arange(self.n) + 0.5) * self.cell
        self._centers = centers

    def add_window(self, center, half_extent):
        self.windows.append((np.asarray(center, float).copy(), float(half_extent)))
        cx, cy = float(center[0]), float(center[1])
        in_x = np.abs(self._centers - cx) <= half_extent
        in_y = np.abs(self._centers - cy) <= half_extent
        self.covered |= np.outer(in_y, in_x)

    def covered_fraction(self) -> float:
        return float(self.covered.sum()) / float(self.n * self.n)


# ---------------------------------------------------------------------------
# Grid signed distance and disc fitting

def _distance_to(target: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance, in cells, from each cell of a 2-D boolean
    raster to its nearest True cell (the separable transform of Felzenszwalb
    & Huttenlocher, "Distance Transforms of Sampled Functions", 2012).

    Column pass: g, each cell's row distance to the nearest target in its
    column, or at least nx + ny (longer than any distance in the raster) where
    the column has none.  Row pass: d² = min over k of g²(x ± k) + k² for
    k = 1, 2, ... until k² reaches the largest d², a stop that is exact
    because every value is an integer.  The result is the square root of d².
    """
    ny, nx = target.shape
    cap = nx + ny
    rows = np.arange(ny)[:, None]
    above = np.maximum.accumulate(np.where(target, rows, -cap), axis=0)
    below = np.minimum.accumulate(np.where(target, rows, ny + cap)[::-1], axis=0)[::-1]
    g2 = np.minimum(rows - above, below - rows) ** 2
    d2 = g2.copy()
    k = 1
    while k < nx and k * k < d2.max():
        np.minimum(d2[:, k:], g2[:, :-k] + k * k, out=d2[:, k:])
        np.minimum(d2[:, :-k], g2[:, k:] + k * k, out=d2[:, :-k])
        k += 1
    return np.sqrt(d2.astype(float))


def grid_to_sdf(grid: OccupancyGrid) -> np.ndarray:
    """Per-cell signed distance in cell units: positive on free cells
    (distance to the nearest occupied cell), negative on occupied cells
    (minus the distance to the nearest free cell).  Each call computes a new
    array; ``OccupancyGrid.cell_sdf`` is the one a grid shares."""
    occ = grid.occupied
    ny, nx = occ.shape
    cap = float(np.hypot(nx, ny))
    if occ.all() or (~occ).all():
        warnings.warn("degenerate occupancy grid: all cells identical", RuntimeWarning)
        return np.full(occ.shape, -cap if occ.all() else cap)
    return _distance_to(occ) - _distance_to(~occ)


def grid_sdf_world(grid: OccupancyGrid):
    """Bilinear world-coordinate sampler of the grid's cell SDF
    (``OccupancyGrid.cell_sdf``), in world units.

    The sampler is cached on the grid object; outside the raster it clamps to
    the border cell.  ``sample`` takes an (n, 2) array of points and returns
    (n,) values, or one point (a float pair or a vector) and returns a float.
    A finite single point is read with Python float arithmetic in the array
    path's order of operations, so it returns the same bits as
    ``sample(point[None])[0]`` without the array overhead; a non-finite one
    goes through the array path.
    """
    cache = getattr(grid, "_sdf_cache", None)
    if cache is None:
        cs = grid.cell_size
        sdf = grid.cell_sdf * cs
        ny, nx = sdf.shape
        at = sdf.item

        def sample_array(points):
            pts = np.atleast_2d(np.asarray(points, float))
            fx = np.clip(pts[:, 0] / cs - 0.5, 0, nx - 1)
            fy = np.clip(pts[:, 1] / cs - 0.5, 0, ny - 1)
            x0 = np.clip(np.floor(fx).astype(int), 0, nx - 2) if nx > 1 else np.zeros(len(pts), int)
            y0 = np.clip(np.floor(fy).astype(int), 0, ny - 2) if ny > 1 else np.zeros(len(pts), int)
            tx, ty = fx - x0, fy - y0
            x1 = np.minimum(x0 + 1, nx - 1)
            y1 = np.minimum(y0 + 1, ny - 1)
            return (sdf[y0, x0] * (1 - tx) * (1 - ty) + sdf[y0, x1] * tx * (1 - ty)
                    + sdf[y1, x0] * (1 - tx) * ty + sdf[y1, x1] * tx * ty)

        def sample(points):
            if getattr(points, "ndim", 1) > 1:
                return sample_array(points)
            x, y = float(points[0]), float(points[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                return float(sample_array(points)[0])
            # np.clip(a, lo, hi) is min(max(a, lo), hi) with max(a, lo) = a if
            # a > lo else lo; max(lo, a) and min(hi, m) pick the same operands
            fx = min(nx - 1.0, max(0.0, x / cs - 0.5))
            fy = min(ny - 1.0, max(0.0, y / cs - 0.5))
            x0 = min(nx - 2, max(0, math.floor(fx))) if nx > 1 else 0
            y0 = min(ny - 2, max(0, math.floor(fy))) if ny > 1 else 0
            tx, ty = fx - x0, fy - y0
            x1 = min(x0 + 1, nx - 1)
            y1 = min(y0 + 1, ny - 1)
            return (at(y0, x0) * (1 - tx) * (1 - ty) + at(y0, x1) * tx * (1 - ty)
                    + at(y1, x0) * (1 - tx) * ty + at(y1, x1) * tx * ty)

        cache = sample
        object.__setattr__(grid, "_sdf_cache", cache)
    return cache


def window_cells(grid: OccupancyGrid, window):
    """(c0, c1, r0, r1): the inclusive column and row bounds of the grid cells
    a sensing window (center, half_extent) reaches, clipped to the raster."""
    center, half_extent = window
    cs = grid.cell_size
    ny, nx = grid.shape
    c0 = max(0, math.floor((center[0] - half_extent) / cs))
    c1 = min(nx - 1, math.ceil((center[0] + half_extent) / cs))
    r0 = max(0, math.floor((center[1] - half_extent) / cs))
    r1 = min(ny - 1, math.ceil((center[1] + half_extent) / cs))
    return c0, c1, r0, r1


def extract_circles(grid: OccupancyGrid, window, d_hat_cells=8.0, max_discs=16):
    """Greedy disc cover of the occupied cells inside a sensing window.

    Discs are seeded at the deepest uncovered wall cell (most negative SDF);
    the radius is the local wall half-thickness clamped to [1, d_hat_cells]
    cells.  Cells within one cell of a placed disc count as covered.  Returns
    world-coordinate obstacles, at most ``max_discs`` of them.
    """
    cs = grid.cell_size
    c0, c1, r0, r1 = window_cells(grid, window)
    if c0 > c1 or r0 > r1:
        return []
    sub = grid.occupied[r0 : r1 + 1, c0 : c1 + 1]
    if not sub.any():
        return []
    sdf = grid.cell_sdf
    rows, cols = np.nonzero(sub)
    rows, cols = rows + r0, cols + c0
    depth = -sdf[rows, cols]  # wall half-thickness in cells, >= 1 on walls
    # deterministic order: deepest first, then row-major
    order = np.lexsort((cols, rows, -depth))
    rows, cols, depth = rows[order], cols[order], depth[order]
    xy = np.stack([(cols + 0.5) * cs, (rows + 0.5) * cs], axis=1)
    left = np.arange(len(rows))  # the uncovered cells, in sorted order
    discs = []
    while len(left) and len(discs) < max_discs:
        k = left[0]
        r_cells = float(min(max(depth[k], 1.0), d_hat_cells))
        discs.append(Obstacle(xy[k].copy(), r_cells * cs, 1.0))
        # measured over the uncovered cells only; one cell beyond the disc is covered
        left = left[disc_distances(xy[left], (r_cells + 1.0) * cs, xy[k]) > 0.0]
    return discs
