"""The three benchmark workloads and the oracles that check their answers.

Each workload is a closed loop with one client: the next op starts only
after the previous one returned and was checked.  Inputs come from the
``seed`` alone, and every call into mixdiag goes through a module attribute
or a class method (``pipeline.run_pipeline``, ``KnowledgeGraph.query``), so
the traced run can wrap exactly the functions the untraced run calls.

Oracles never use mixdiag: observation answers come from the log CSV read
with the stdlib ``csv`` module, inferred types from the generator's own
chain and equivalence structure, and pipeline answers from byte identity
across repeats plus facts about the plant written down here.
"""

from __future__ import annotations

import csv
import io
import random
import shutil
from pathlib import Path

from mixdiag import kg, pipeline, plant
from mixdiag.terms import RDF_TYPE, Literal, Triple, Var, iri

GOLDEN_FILES = ("anomalies.json", "automaton.json", "graph.nt", "report.txt")

# The plant's sensors and the equipment each is part of, as the plant
# description states them; the snapshot oracle joins observations with this.
SENSOR_PARENT = {
    "F201": "P201",
    "L201": "B201",
    "L202": "B202",
    "L203": "B203",
    "L204": "B204",
    "L205": "B205",
    "T201": "B204",
}

BLOCKAGE_REPORT_LINES = (
    "\n    equipment: ex:P201\n",
    "\n    functions: ex:Transfer\n",
    "\n    sensors to check: ex:F201, ex:L204, ex:L205, ex:T201\n",
)
CONTEXT_CQ_LINES = tuple(f"\n  [PASS] CQ{i} (contextualization): " for i in (1, 2, 3))

SOSA_RESULT_TIME = iri("sosa:resultTime")
SOSA_MADE_BY_SENSOR = iri("sosa:madeBySensor")
SOSA_HAS_SIMPLE_RESULT = iri("sosa:hasSimpleResult")
ISA_IS_PART_OF = iri("isa88:isPartOf")


class SetupCheckFailed(Exception):
    """Set-up did not reproduce the goldens, or its warm-up op was wrong."""


def local_name(term) -> str:
    """The part of an IRI after ``#``, so answers compare without mixdiag."""
    return term.value.rsplit("#", 1)[1]


def golden_blockage_run(root: Path, out_dir: Path):
    """Run the blockage pipeline at its golden settings and require its
    artifacts to equal ``tests/golden/blockage`` byte for byte."""
    result = pipeline.run_pipeline("blockage", out_dir, train_cycles=10, seed=42)
    golden = root / "tests" / "golden" / "blockage"
    for name in GOLDEN_FILES:
        if (out_dir / name).read_bytes() != (golden / name).read_bytes():
            raise SetupCheckFailed(f"{name} differs from tests/golden/blockage/{name}")
    return result


def read_log_rows(text: str) -> list[tuple[float, str, str, str]]:
    """``(t_s, kind, id, value)`` for every record of a log CSV."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    return [(float(t), kind, rid, value) for t, kind, rid, value in reader]


def snapshot_oracle(rows) -> dict[float, list[tuple[str, str, float]]]:
    """Expected snapshot answer per sample time: (sensor, part, value)."""
    by_time: dict[float, list[tuple[str, str, float]]] = {}
    for t, kind, rid, value in rows:
        if kind == "sensor":
            by_time.setdefault(t, []).append((rid, SENSOR_PARENT[rid], float(value)))
    return {t: sorted(answer) for t, answer in by_time.items()}


def snapshot_query(t_s: float) -> kg.Query:
    """What did every sensor, and the equipment it is part of, read at t?"""
    o, s, v, part = Var("o"), Var("s"), Var("v"), Var("part")
    return kg.Query(
        ("s", "part", "v"),
        (
            (o, SOSA_RESULT_TIME, Literal.double(t_s)),
            (o, SOSA_MADE_BY_SENSOR, s),
            (o, SOSA_HAS_SIMPLE_RESULT, v),
            (s, ISA_IS_PART_OF, part),
        ),
    )


def snapshot_answer(rows) -> list[tuple[str, str, float]]:
    return sorted(
        (local_name(r["s"]), local_name(r["part"]), float(r["v"].lexical)) for r in rows
    )


class Workload:
    """One closed-loop workload.

    ``setup`` builds the state ops run against and fills ``round_ops``, the
    op inputs the harness cycles through; ``begin_round`` restores the state
    a round of ``round_size`` ops starts from (untimed); an op is ``run``
    then ``check``, and both are timed; ``finish_op`` cleans up after an op
    (untimed).  The harness runs whole rounds, so every run executes the
    same mix of ops however fast the program is.
    """

    name = ""
    round_size = 1

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.round_ops: list = []
        self._setups = 0

    def fresh_dir(self, stem: str) -> Path:
        self._setups += 1
        path = self.workdir / f"{stem}{self._setups}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def begin_round(self) -> None:
        pass

    def run(self, op):
        raise NotImplementedError

    def check(self, op, answer) -> bool:
        raise NotImplementedError

    def finish_op(self, op) -> None:
        pass

    def sizes(self) -> dict:
        """Input sizes, which must not depend on the seed."""
        raise NotImplementedError


class Diagnose(Workload):
    """One op is one ``run_pipeline`` at 100 training cycles into a fresh
    directory; scenarios rotate nominal -> blockage -> leakage."""

    name = "diagnose"
    round_size = 3
    SCENARIOS = ("nominal", "blockage", "leakage")

    def __init__(self, seed, root, workdir, train_cycles: int = 100):
        super().__init__(seed, root, workdir)
        self.train_cycles = train_cycles
        start = random.Random(seed).randrange(len(self.SCENARIOS))
        self.round_ops = [
            self.SCENARIOS[(start + i) % len(self.SCENARIOS)]
            for i in range(len(self.SCENARIOS))
        ]
        self.reference: dict[str, dict[str, bytes]] = {}
        self._ops = 0

    def setup(self) -> None:
        golden_blockage_run(self.root, self.fresh_dir("golden"))

    def run(self, scenario):
        self._ops += 1
        return pipeline.run_pipeline(
            scenario, self.workdir / f"op{self._ops}", train_cycles=self.train_cycles,
            seed=self.seed,
        )

    def check(self, scenario, result) -> bool:
        blobs = {name: path.read_bytes() for name, path in result.artifacts.items()}
        if blobs != self.reference.setdefault(scenario, blobs):
            return False
        report = blobs["report.txt"].decode("utf-8")
        if not all(line in report for line in CONTEXT_CQ_LINES):
            return False
        if scenario == "blockage":
            return all(line in report for line in BLOCKAGE_REPORT_LINES)
        if scenario == "nominal":
            return "\nNo anomalies detected;" in report
        return "\nAnomalies detected: " in report

    def finish_op(self, scenario) -> None:
        shutil.rmtree(self.workdir / f"op{self._ops}", ignore_errors=True)

    def sizes(self) -> dict:
        return {"ops_per_round": len(self.round_ops), "train_cycles": self.train_cycles}


class SensorQueries(Workload):
    """Read-only snapshot queries against the blockage graph, whose virtual
    binding serves the one-cycle evaluation log."""

    name = "sensor_queries"

    def __init__(self, seed, root, workdir, n_queries: int = 64):
        super().__init__(seed, root, workdir)
        self.n_queries = n_queries
        self.graph = None
        self.log_records = 0

    def setup(self) -> None:
        out = self.fresh_dir("setup")
        result = golden_blockage_run(self.root, out)
        rows = read_log_rows((out / "eval_log.csv").read_text(encoding="utf-8"))
        self.log_records = sum(1 for r in rows if r[1] == "sensor")
        self.oracle = snapshot_oracle(rows)
        rng = random.Random(self.seed)
        times = sorted(self.oracle)
        self.round_ops = [
            (t, snapshot_query(t)) for t in (rng.choice(times) for _ in range(self.n_queries))
        ]
        self.graph = result.graph

    def run(self, op):
        return self.graph.query(op[1])

    def check(self, op, rows) -> bool:
        return snapshot_answer(rows) == self.oracle[op[0]]

    def sizes(self) -> dict:
        return {"queries_per_round": len(self.round_ops), "log_records": self.log_records}


def alignment_plan(seed: int, chain: int, per_class: int, steps: int,
                   per_step: int, align_every: int):
    """The seeded alignment ontology and its write batches, as names.

    Returns ``(initial, batches, queries)``: the initial triples (a subclass
    chain ``ex:Chain0 <- ex:Chain1 <- ...`` under ``isa88:Equipment`` with
    ``per_class`` instances per class), one batch per step (the next chain
    link, ``per_step`` typed instances and, every ``align_every`` steps, an
    ``ex:equivalentTo`` pair and an ``ex:relationTo`` specialisation), and
    per step the queried class with its expected instances.
    """
    rng = random.Random(seed)
    class_of: dict[str, str] = {}
    equivalent: dict[str, int] = {}

    def cls(i):
        return f"ex:Chain{i}"

    def instance(of: str) -> tuple[str, str, str]:
        name = f"ex:unit{len(class_of)}"
        class_of[name] = of
        return (name, "rdf:type", of)

    initial = [(cls(0), "rdfs:subClassOf", "isa88:Equipment")]
    initial += [(cls(i), "rdfs:subClassOf", cls(i - 1)) for i in range(1, chain)]
    initial += [instance(cls(i)) for i in range(chain) for _ in range(per_class)]

    def depth(name: str) -> int:
        if name in equivalent:
            return equivalent[name]
        return int(name.removeprefix("ex:Chain"))

    def stratum(i: int, strata: int, n: int) -> int:
        """A seeded depth in the i-th of ``strata`` equal parts of the chain,
        so the seed moves where work lands but hardly how much there is."""
        return int((i + rng.random()) * n / strata)

    batches, queries = [], []
    n = chain
    for step in range(steps):
        batch = [(cls(n), "rdfs:subClassOf", cls(n - 1))]
        n += 1
        batch += [instance(cls(stratum(i, per_step, n))) for i in range(per_step)]
        if step % align_every == align_every - 1:
            alias = f"ex:Alias{step}"
            equivalent[alias] = stratum(1, 3, n)
            batch.append((alias, "ex:equivalentTo", cls(equivalent[alias])))
            batch.append(instance(alias))
            relation = f"ex:feeds{step}"
            batch.append((relation, "ex:relationTo", "ex:connectedTo"))
            units = sorted(class_of)
            batch.append((rng.choice(units), relation, rng.choice(units)))
        batches.append(batch)
        target = stratum(1, 3, n)
        expected = sorted(x for x, c in class_of.items() if depth(c) >= target)
        queries.append((cls(target), expected))
    return initial, batches, queries


def to_triples(named) -> list[Triple]:
    return [Triple(iri(s), iri(p), iri(o)) for s, p, o in named]


class LiveUpdates(Workload):
    """Writes between reads: each op inserts an alignment batch, appends the
    next slice of a live log to the bound CSV, re-infers, and answers one
    inferred-type query and one snapshot at the newest timestamp.  A round
    is one episode of ``steps`` ops from the same starting state."""

    name = "live_updates"

    def __init__(self, seed, root, workdir, steps: int = 10, chain: int = 30,
                 per_class: int = 4, per_step: int = 3, align_every: int = 3,
                 slice_samples: int = 3):
        super().__init__(seed, root, workdir)
        self.steps = self.round_size = steps
        self.slice_samples = slice_samples
        initial, batches, queries = alignment_plan(
            seed, chain, per_class, steps, per_step, align_every
        )
        self.initial_named = initial
        self.batch_named = batches
        self.type_queries = queries

    def setup(self) -> None:
        out = self.fresh_dir("setup")
        base = golden_blockage_run(self.root, out).graph
        eval_rows = read_log_rows((out / "eval_log.csv").read_text(encoding="utf-8"))
        cycle_samples = len({t for t, kind, _, _ in eval_rows if kind == "sensor"})

        faults = pipeline.SCENARIOS["blockage"]
        live_text = plant.write_log_csv(
            plant.simulate(plant.default_config(), 2, faults, self.seed)
        )
        header, *lines = live_text.splitlines(keepends=True)
        rows = read_log_rows(live_text)
        times = sorted({t for t, kind, _, _ in rows if kind == "sensor"})
        cuts = [cycle_samples + k * self.slice_samples for k in range(self.steps + 1)]
        if cuts[-1] >= len(times):
            raise ValueError("live log too short for the episode")

        def lines_before(t_s: float) -> int:
            return next(i for i, row in enumerate(rows) if row[0] >= t_s)

        bounds = [lines_before(times[c]) for c in cuts]
        self.initial_text = header + "".join(lines[: bounds[0]])
        self.slices = ["".join(lines[a:b]) for a, b in zip(bounds, bounds[1:])]
        oracle = snapshot_oracle(rows)
        newest = [times[c - 1] for c in cuts[1:]]

        self.live_path = self.workdir / "live_log.csv"
        self.live_path.write_text(self.initial_text, encoding="utf-8")
        graph = kg.KnowledgeGraph(base.asserted).insert(to_triples(self.initial_named))
        self.start_graph = graph.bind_virtual(kg.VirtualBinding(self.live_path)).infer()
        self.round_ops = [
            (
                to_triples(batch),
                piece,
                kg.Query(("x",), ((Var("x"), RDF_TYPE, iri(cls)),)),
                expected,
                snapshot_query(t),
                oracle[t],
            )
            for batch, piece, (cls, expected), t in zip(
                self.batch_named, self.slices, self.type_queries, newest
            )
        ]

    def begin_round(self) -> None:
        self.graph = self.start_graph
        self.live_path.write_text(self.initial_text, encoding="utf-8")

    def run(self, op):
        batch, piece, type_query, _, snap_query, _ = op
        graph = self.graph.insert(batch)
        with self.live_path.open("a", encoding="utf-8") as f:
            f.write(piece)
        self.graph = graph.infer()
        return self.graph.query(type_query), self.graph.query(snap_query)

    def check(self, op, answer) -> bool:
        type_rows, snap_rows = answer
        _, _, _, expected_types, _, expected_snapshot = op
        got_types = sorted("ex:" + local_name(r["x"]) for r in type_rows)
        return got_types == expected_types and snapshot_answer(snap_rows) == expected_snapshot

    def sizes(self) -> dict:
        return {
            "steps_per_round": self.steps,
            "initial_triples": len(self.initial_named),
            "batch_triples": [len(b) for b in self.batch_named],
            "slice_samples": self.slice_samples,
        }


WORKLOADS = {w.name: w for w in (Diagnose, SensorQueries, LiveUpdates)}
