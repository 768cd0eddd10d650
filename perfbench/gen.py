"""Seeded input generator: one ``--seed`` -> every input of every workload.

Everything the system under test receives is produced here, from
``random.Random(seed)`` / ``numpy.random.default_rng(seed)`` streams and
the repository's synthetic shape families
(:func:`repro.datasets.synthetic.mixed_collection`).  The same seed
always yields the same corpora, query streams, arrival schedules and
append batches; nothing here calls the engine, so a change to the
program can never change its own inputs.

Query descriptions are plain tuples so they pickle and print:

* ``("regex", text)`` -- the regex dialect, sent as-is;
* ``("nl", text)`` -- a natural-language phrasing (the CRF front end);
* ``("sketch", points, mode)`` -- a drawn polyline in domain
  coordinates, parsed by :func:`repro.sketch.parser.parse_sketch`.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os
import random
from typing import Dict, Iterator, List, Tuple

import numpy as np

#: Cores the load may use: threads, connections and engine workers.
NPROC = os.cpu_count() or 1

PATTERNS = ("up", "down", "flat")

#: NL vocabulary per pattern word.  Every combination translates without
#: error (some into the translator's ambiguity alternatives, which are
#: still valid queries).
NL_WORDS = {
    "up": ("rising", "increasing", "climbing", "going up", "rises", "increases"),
    "down": ("falling", "decreasing", "dropping", "going down", "falls", "declines"),
    "flat": ("flat", "stable"),
}
NL_CONNECTORS = (" then ", ", then ", " and then ", " followed by ")

# -- explore ------------------------------------------------------------------
#: Corpus: EXPLORE_GROUPS series of EXPLORE_LENGTH points, each x carrying
#: EXPLORE_REPS y values so the mean aggregate runs on every query.
EXPLORE_GROUPS = 140
EXPLORE_LENGTH = 96
EXPLORE_REPS = 2
#: One block of the query stream: (front end, size, x-windowed / sketch
#: mode) per query.  The stream is EXPLORE_BLOCKS blocks, each this
#: composition in a seeded order, so every seed -- and every prefix a
#: window reaches -- offers the same mix of query costs: 40% regex
#: (2-4 segments, some x-windowed, one alternation), 30% NL (2-3 steps),
#: 30% sketches (3-6 points, blurry and precise).
EXPLORE_BLOCK = (
    ("regex", 2, True), ("regex", 2, True), ("regex", 3, True), ("regex", 3, True),
    ("regex", 4, False), ("regex", 4, False), ("regex", 4, True), ("regex-or", 0, False),
    ("nl", 2, None), ("nl", 2, None), ("nl", 2, None),
    ("nl", 3, None), ("nl", 3, None), ("nl", 3, None),
    ("sketch", 3, "blurry"), ("sketch", 4, "blurry"), ("sketch", 6, "blurry"),
    ("sketch", 3, "precise"), ("sketch", 4, "precise"), ("sketch", 6, "precise"),
)
#: Blocks per run (more queries than a window can use).
EXPLORE_BLOCKS = 30
#: Queries re-checked against the workers=1 reference after the window.
EXPLORE_CHECKS = 8

# -- serve --------------------------------------------------------------------
#: Seed of the served data set (tables and key universe); see serve_inputs.
SERVE_UNIVERSE_SEED = 2020
#: Published tables: (groups, points per group).
SERVE_TABLES = ((64, 32), (64, 32), (64, 32))
#: Distinct k values; with the query set they span the key universe.
SERVE_KS = (5, 10, 20)
#: Regex / NL / sketch-derived queries per table in the universe.
SERVE_QUERIES = (48, 4, 8)
#: Share of regex keys whose first segment is pinned to an x window.
SERVE_WINDOWED = 0.1
#: Zipf exponent of key popularity.
SERVE_ZIPF = 1.1
#: Offered load (requests per second) of the open-loop schedule: enough
#: requests in a 20 s window for ten samples beyond the p99, under the
#: default TenantQuota (50/s per tenant, 8 in flight).  At 60/s on two
#: cores, bursts of misses reach the in-flight cap and are refused.
SERVE_RATE = 50.0
#: Keys fetched (untimed) before the window: the result cache's capacity,
#: so the window runs on a full cache where every miss evicts.
SERVE_FILL = 256
#: Searches in flight per connection while filling (under the tenant cap).
SERVE_FILL_DEPTH = 4
#: Share of requests flagged for cancelling; the client cancels a flagged
#: request at its first progress frame, which only misses send.
SERVE_CANCEL_SHARE = 0.03

# -- tail ---------------------------------------------------------------------
TAIL_GROUPS = 150
TAIL_LENGTH = 48
#: Share of groups each append batch touches, and points per touched group.
TAIL_TOUCH_SHARE = 0.1
TAIL_POINTS = 2
TAIL_QUERIES = ("[p=up][p=down]", "[p=down][p=up][p=flat]", "[p=flat][p=up]")
TAIL_K = 10


def corpus_columns(groups: int, length: int, seed: int, reps: int = 1,
                   noise: float = 0.1) -> Dict[str, np.ndarray]:
    """A ``mixed_collection`` laid out as z/x/y columns.

    With ``reps > 1`` every x value carries ``reps`` y values (the series
    plus seeded noise), so searches must aggregate duplicates.
    """
    from repro.datasets.synthetic import mixed_collection

    rng = np.random.default_rng(seed + 7919)
    zs: List[str] = []
    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    for name, series in mixed_collection(groups, length, seed):
        for _ in range(reps):
            zs.extend([name] * length)
            xs.append(np.arange(length, dtype=np.int64))
            jitter = rng.normal(0.0, noise, length) if reps > 1 else 0.0
            ys.append(np.asarray(series, dtype=np.float64) + jitter)
    return {
        "z": np.array(zs, dtype=object),
        "x": np.concatenate(xs),
        "y": np.round(np.concatenate(ys), 6),
    }


def regex_query(rng: random.Random, length: int, windowed: float) -> str:
    """A chain of 2-4 pattern segments, sometimes x-windowed or OR-ed.

    ``windowed`` is the share whose first segment is pinned to an x
    window.
    """
    size = rng.choice((2, 2, 3, 3, 4))
    text = shaped_regex(rng, length, size, rng.random() < windowed)
    if rng.random() < 0.15:
        text = alternation(rng, length)
    return text


def shaped_regex(rng: random.Random, length: int, size: int, windowed: bool) -> str:
    """A chain of ``size`` pattern segments, the first x-windowed if asked."""
    segments = ["[p={}]".format(rng.choice(PATTERNS)) for _ in range(size)]
    if windowed:
        start = rng.randrange(0, length // 3)
        end = rng.randrange(length // 2, length)
        segments[0] = "[p={}, x.s={}, x.e={}]".format(
            rng.choice(PATTERNS), start, end
        )
    return "".join(segments)


def alternation(rng: random.Random, length: int) -> str:
    """Two chains OR-ed: a 2-3 segment one, sometimes x-windowed, and a plain one."""
    first = shaped_regex(rng, length, rng.choice((2, 3)), rng.random() < 0.25)
    second = shaped_regex(rng, length, rng.choice((2, 3)), False)
    return "({}) | ({})".format(first, second)


def nl_query(rng: random.Random, steps: int = 0) -> str:
    """A 2-3 step phrasing such as ``"rising, then flat and then falling"``.

    ``steps=0`` picks the number of steps at random.
    """
    words = [rng.choice(NL_WORDS[rng.choice(PATTERNS)])
             for _ in range(steps or rng.choice((2, 3)))]
    text = words[0]
    for word in words[1:]:
        text += rng.choice(NL_CONNECTORS) + word
    return text


def sketch_points(rng: random.Random, length: int,
                  count: int = 0) -> Tuple[Tuple[float, float], ...]:
    """A ``count``-vertex polyline over ``[0, length)`` in domain coordinates.

    ``count=0`` picks 3-6 vertices at random.
    """
    count = count or rng.randint(3, 6)
    xs = sorted(rng.sample(range(0, length), count))
    return tuple((float(x), round(rng.uniform(-3.0, 6.0), 3)) for x in xs)


def _distinct(make, count: int, attempts: int = 50) -> list:
    """``count`` distinct values from ``make()`` (bounded retries)."""
    seen: Dict[object, None] = {}
    budget = attempts * count
    while len(seen) < count and budget > 0:
        seen.setdefault(make(), None)
        budget -= 1
    return list(seen)


def _cost_class(query) -> str:
    """Front end, size (segments, words or sketch points) and x window."""
    if query[0] == "regex":
        windowed = "-windowed" if "x.s=" in query[1] else ""
        return "regex{}{}".format(query[1].count("["), windowed)
    if query[0] == "nl":
        return "nl{}".format(query[1].count("then") + query[1].count("followed by"))
    return "sketch{}".format(len(query[1]))


def _interleave(rng: random.Random, by_class: Dict[str, list]) -> list:
    """Seeded order within each cost class, a fixed interleave across them.

    Each class's items are shuffled, then merged so that every prefix of
    the result holds the classes in proportion to their sizes.  For the
    serve key ranking a class is (front end, size, x window, k): the
    share of requests per class -- NL parsing is costly even on a cache
    hit, longer chains and larger k cost more on a miss -- is then the
    same for every seed, instead of depending on which class a shuffle
    puts at the head of the Zipf distribution.
    """
    lists = {label: rng.sample(keys, len(keys)) for label, keys in sorted(by_class.items())}
    taken = dict.fromkeys(lists, 0)
    ranking = []
    for _ in range(sum(len(keys) for keys in lists.values())):
        label = min(
            (label for label in lists if taken[label] < len(lists[label])),
            key=lambda label: ((taken[label] + 0.5) / len(lists[label]), label),
        )
        ranking.append(lists[label][taken[label]])
        taken[label] += 1
    return ranking


def explore_query(rng: random.Random, kind: str, size: int, extra) -> tuple:
    """One query of an :data:`EXPLORE_BLOCK` slot."""
    if kind == "regex":
        return ("regex", shaped_regex(rng, EXPLORE_LENGTH, size, extra))
    if kind == "regex-or":
        return ("regex", alternation(rng, EXPLORE_LENGTH))
    if kind == "nl":
        return ("nl", nl_query(rng, size))
    return ("sketch", sketch_points(rng, EXPLORE_LENGTH, size), extra)


def explore_inputs(seed: int) -> dict:
    """Corpus, warm-up query, distinct query stream and the checked subset.

    The stream is :data:`EXPLORE_BLOCKS` blocks of the
    :data:`EXPLORE_BLOCK` composition, each block in a seeded order; no
    query repeats (nor equals the warm-up query).
    """
    rng = random.Random(seed)
    columns = corpus_columns(EXPLORE_GROUPS, EXPLORE_LENGTH, seed, reps=EXPLORE_REPS)
    warmup = ("nl", "rising then falling")
    slots = {slot: EXPLORE_BLOCK.count(slot) for slot in EXPLORE_BLOCK}
    pools = {
        slot: [query for query in _distinct(
            functools.partial(explore_query, rng, *slot), count * EXPLORE_BLOCKS + 1
        ) if query != warmup]
        for slot, count in slots.items()
    }
    queries = []
    for _ in range(EXPLORE_BLOCKS):
        block = [pools[slot].pop() for slot in EXPLORE_BLOCK]
        rng.shuffle(block)
        queries.extend(block)
    return {
        "columns": columns,
        "warmup": warmup,
        "queries": queries,
        "check_seed": rng.randrange(1 << 30),
        "k": 10,
    }


def serve_inputs(seed: int, seconds: float) -> dict:
    """Tables, the (table, query, k) key universe and the arrival schedule.

    The tables and the key universe are one fixed data set
    (:data:`SERVE_UNIVERSE_SEED`); ``seed`` drives the request stream:
    which keys are popular (ranked by :func:`_interleave`, drawn with
    Zipf popularity), the Poisson arrivals at :data:`SERVE_RATE` over at
    most :data:`NPROC` connections, and the cancels.  A cache miss costs
    ~25x a hit, so with a seeded universe the miss cost -- and with it
    the latency tail -- would vary with the data more than with the
    system.  Sketch queries are kept as polylines; the client turns each
    into the regex it sends.

    The p95 latency lies among the misses, so it moves with the hit
    share; the stream therefore fixes what it can of that share.  The
    arrivals are a Poisson process conditioned on its count (``rate *
    seconds`` arrivals at uniform times), and the Zipf draws are
    stratified (one uniform per 1/count slice of the popularity CDF, in
    shuffled order), so every seed requests the same popularity ranks as
    often, up to rounding; the seed decides which key holds which rank,
    the order, the arrival times and which requests are cancelled.
    """
    rng = random.Random(SERVE_UNIVERSE_SEED)
    tables = [
        corpus_columns(groups, length, SERVE_UNIVERSE_SEED * 31 + index)
        for index, (groups, length) in enumerate(SERVE_TABLES)
    ]
    by_class: Dict[str, list] = {}
    for index, (_groups, length) in enumerate(SERVE_TABLES):
        regex_count, nl_count, sketch_count = SERVE_QUERIES
        make_regex = functools.partial(regex_query, rng, length, SERVE_WINDOWED)
        make_sketch = functools.partial(sketch_points, rng, length)
        queries = [("regex", text) for text in _distinct(make_regex, regex_count)]
        queries += [("nl", text) for text in
                    _distinct(functools.partial(nl_query, rng), nl_count)]
        queries += [("sketch", points, "blurry") for points in
                    _distinct(make_sketch, sketch_count)]
        for query in queries:
            for k in SERVE_KS:
                label = "{}-k{}".format(_cost_class(query), k)
                by_class.setdefault(label, []).append((index, query, k))
    rng = random.Random(seed)
    universe = _interleave(rng, by_class)
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF for rank in range(len(universe))]
    connections = max(1, min(2, NPROC))
    count = int(round(SERVE_RATE * seconds))
    arrivals = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    cdf = list(itertools.accumulate(weights))
    keys = [
        min(len(universe) - 1, bisect.bisect_right(cdf, (i + rng.random()) / count * cdf[-1]))
        for i in range(count)
    ]
    rng.shuffle(keys)
    cancels = set(rng.sample(range(count), int(round(count * SERVE_CANCEL_SHARE))))
    schedule = [
        (due, i % connections, key, i in cancels)
        for i, (due, key) in enumerate(zip(arrivals, keys))
    ]
    return {
        "tables": tables,
        "universe": universe,
        "schedule": schedule,
        "connections": connections,
        # Warm-up searches (one per table, a k outside SERVE_KS so no
        # universe key is pre-cached): they build each table's index.
        "warmup": [(index, ("regex", "[p=up][p=down]"), 3)
                   for index in range(len(tables))],
        # Untimed cache fill before the window: the most popular keys,
        # least popular first, so the window starts in steady state.
        "fill": list(range(min(SERVE_FILL, len(universe))))[::-1],
    }


def tail_inputs(seed: int) -> dict:
    """Base table, standing queries and the append-batch stream."""
    return {
        "columns": corpus_columns(TAIL_GROUPS, TAIL_LENGTH, seed),
        "queries": list(TAIL_QUERIES),
        "k": TAIL_K,
        "batches": append_batches(seed),
    }


def append_batches(seed: int) -> Iterator[List[dict]]:
    """Endless seeded batches; each touches TAIL_TOUCH_SHARE of the groups.

    Every touched group gets TAIL_POINTS new points continuing its own
    x axis, as a random walk from its last value.
    """
    from repro.datasets.synthetic import mixed_collection

    rng = np.random.default_rng(seed + 104729)
    base = mixed_collection(TAIL_GROUPS, TAIL_LENGTH, seed)
    names = [name for name, _series in base]
    last = {name: float(series[-1]) for name, series in base}
    next_x = {name: TAIL_LENGTH for name in names}
    touched = max(1, int(round(TAIL_GROUPS * TAIL_TOUCH_SHARE)))
    while True:
        batch: List[dict] = []
        for position in sorted(rng.choice(len(names), touched, replace=False).tolist()):
            name = names[position]
            for _ in range(TAIL_POINTS):
                last[name] = round(last[name] + float(rng.normal(0.0, 0.5)), 6)
                batch.append({"z": name, "x": next_x[name], "y": last[name]})
                next_x[name] += 1
        yield batch

