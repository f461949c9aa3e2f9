"""Query engine and inference closure versus independent naive evaluators.

The production engine reorders patterns (most-constrained first), uses a
predicate index, and answers observation patterns from an indexed view of
each bound log.  The oracle here deliberately does none of that: plain
left-to-right nested loops over the full triple list, with observations
read from the log by the stdlib ``csv`` module.  Agreement on random graphs
and queries is strong evidence the optimizations preserve semantics.  A log
that changes between queries, where a binding may cut its view back and
extend it in place, is checked against a fresh binding's full scan and the
``csv`` module.

Likewise the store's closure is semi-naive and index-driven; the oracle
closure re-derives every rule over every fact until nothing changes.
"""

import csv
import io
import random
import time
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from mixdiag import events, kg
from mixdiag.errors import MixdiagError
from mixdiag.kg import (
    EX_ATTRIBUTE_TO_CLASS,
    EX_EQUIVALENT_TO,
    EX_RELATION_TO,
    SOSA_HAS_SIMPLE_RESULT,
    SOSA_MADE_BY_SENSOR,
    SOSA_OBSERVATION,
    SOSA_RESULT_TIME,
    Filter,
    KnowledgeGraph,
    Query,
    SourceUnavailable,
    VirtualBinding,
    _Closure,
)
from mixdiag.pipeline import run_pipeline
from mixdiag.plant import default_config, simulate, write_log_csv
from mixdiag.terms import (
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    Iri,
    Literal,
    Term,
    Triple,
    XSD_DOUBLE,
    XSD_INTEGER,
    Var,
    format_term,
    iri,
    term_sort_key,
)

# ---------------------------------------------------------------------------
# the oracle


def _match_term(pattern_term, concrete, binding):
    """Extend binding so pattern_term equals concrete, or return None."""
    if isinstance(pattern_term, Var):
        bound = binding.get(pattern_term.name)
        if bound is None:
            out = dict(binding)
            out[pattern_term.name] = concrete
            return out
        return binding if bound == concrete else None
    return binding if pattern_term == concrete else None


_STRING = "http://www.w3.org/2001/XMLSchema#string"


def _oracle_compare(a, b):
    if isinstance(a, Iri) or isinstance(b, Iri):
        return None
    if a.is_numeric() and b.is_numeric():
        try:
            x, y = float(a.lexical), float(b.lexical)
        except ValueError:  # a lexical form that is not a number
            return None
        if x != x or y != y:  # NaN compares with nothing
            return None
    elif a.datatype.value == _STRING and b.datatype.value == _STRING:
        x, y = a.lexical, b.lexical
    else:
        return None
    return (x > y) - (x < y)


def _oracle_filter(row, f):
    value = row[f.var]
    if f.op in ("=", "!="):
        if isinstance(value, Iri) or isinstance(f.constant, Iri):
            equal = value == f.constant
        else:
            cmp = _oracle_compare(value, f.constant)
            if cmp is None:
                return False
            equal = cmp == 0
        return equal if f.op == "=" else not equal
    cmp = _oracle_compare(value, f.constant)
    if cmp is None:
        return False
    if f.op == "<":
        return cmp < 0
    if f.op == "<=":
        return cmp <= 0
    if f.op == ">":
        return cmp > 0
    return cmp >= 0


def oracle_query(triples, query):
    rows = [{}]
    for pattern in query.where:
        next_rows = []
        for row in rows:
            for triple in triples:
                b = row
                for pat, conc in zip(
                    pattern, (triple.subject, triple.predicate, triple.object)
                ):
                    b = _match_term(pat, conc, b)
                    if b is None:
                        break
                if b is not None:
                    next_rows.append(b)
        rows = next_rows
    rows = [r for r in rows if all(_oracle_filter(r, f) for f in query.filters)]
    return [{name: r[name] for name in query.select} for r in rows]


def canonical(row):
    return tuple(format_term(row[k]) for k in sorted(row))


# ---------------------------------------------------------------------------
# random case generation


SUBJECTS = [iri(f"ex:s{i}") for i in range(8)]
PREDICATES = [iri(f"ex:p{i}") for i in range(4)]
LITERALS = (
    [Literal.double(float(v)) for v in (1, 2, 3, 5.5, "nan")]
    + [Literal("abc", XSD_DOUBLE)]
    + [Literal.string(s) for s in ("red", "green", "blue")]
    + [Literal.integer(7)]
)
OBJECTS = SUBJECTS[:5] + LITERALS


def random_graph(rng):
    n = rng.randrange(0, 200)
    triples = {
        Triple(rng.choice(SUBJECTS), rng.choice(PREDICATES), rng.choice(OBJECTS))
        for _ in range(n)
    }
    return list(triples)


def random_query(rng):
    var_names = ["a", "b", "c", "d"]
    n_patterns = rng.randint(1, 4)
    patterns = []
    used_vars = []

    def pick_term(position, allow_fresh_var=True):
        roll = rng.random()
        if roll < 0.45 and (used_vars or allow_fresh_var):
            # reuse an existing variable when possible to create joins
            if used_vars and (rng.random() < 0.6 or len(used_vars) == len(var_names)):
                return Var(rng.choice(used_vars))
            fresh = next(v for v in var_names if v not in used_vars)
            used_vars.append(fresh)
            return Var(fresh)
        if position == 0:
            return rng.choice(SUBJECTS)
        if position == 1:
            return rng.choice(PREDICATES)
        return rng.choice(OBJECTS)

    fully_variable_used = False
    for _ in range(n_patterns):
        while True:
            s = pick_term(0)
            p = rng.choice(PREDICATES) if rng.random() < 0.8 else pick_term(1)
            o = pick_term(2)
            all_vars = all(isinstance(term, Var) for term in (s, p, o))
            if all_vars and fully_variable_used:
                continue  # keep the oracle fast: at most one open pattern
            fully_variable_used = fully_variable_used or all_vars
            patterns.append((s, p, o))
            break

    # a discarded pattern may have drawn a variable no kept pattern holds
    kept = {t.name for pattern in patterns for t in pattern if isinstance(t, Var)}
    used_vars = [name for name in used_vars if name in kept]
    if not used_vars:
        # ensure the query selects something: force a variable object
        s, p, _ = patterns[0]
        used_vars.append("a")
        patterns[0] = (s, p, Var("a"))

    select = tuple(
        rng.sample(used_vars, rng.randint(1, len(used_vars)))
    )
    filters = ()
    if rng.random() < 0.5:
        var = rng.choice(used_vars)
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        constant = rng.choice(OBJECTS if op in ("=", "!=") else LITERALS)
        filters = (Filter(var, op, constant),)
    return Query(select, tuple(patterns), filters)


def test_engine_agrees_with_bruteforce_oracle():
    rng = random.Random(20240817)
    started = time.perf_counter()
    cases = 0
    while cases < 120:
        triples = random_graph(rng)
        graph = KnowledgeGraph().insert(triples)
        query = random_query(rng)
        engine_rows = graph.query(query)
        oracle_rows = oracle_query(triples, query)
        assert Counter(map(canonical, engine_rows)) == Counter(
            map(canonical, oracle_rows)
        ), f"case {cases}: {query}"
        # determinism: identical output on a second run
        assert graph.query(query) == engine_rows
        cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle comparison too slow: {elapsed:.1f}s"


def test_engine_agrees_on_queries_with_order_and_limit():
    rng = random.Random(99)
    for _ in range(30):
        triples = random_graph(rng)
        graph = KnowledgeGraph().insert(triples)
        base = random_query(rng)
        query = Query(
            base.select, base.where, base.filters, order_by=base.select[0], limit=5
        )
        rows = graph.query(query)
        assert len(rows) <= 5
        unlimited = graph.query(Query(base.select, base.where, base.filters))
        # the limited result is a prefix of some valid ordering of the full one
        full_counts = Counter(map(canonical, unlimited))
        for row in map(canonical, rows):
            assert full_counts[row] > 0
            full_counts[row] -= 1


# Literals whose order is easy to get wrong: numbers in several lexical
# forms, both zeros, booleans, strings, and "7" as an integer, a double and
# a string (the first two share a sort key, so only the solve order
# breaks their tie)
ORDER_OBJECTS = OBJECTS + [
    Literal("1", XSD_INTEGER), Literal("01", XSD_INTEGER), Literal("1.0", XSD_DOUBLE),
    Literal("1e0", XSD_DOUBLE), Literal.double(0.0), Literal.double(-0.0),
    Literal.boolean(True), Literal.boolean(False), Literal("7", XSD_DOUBLE),
    Literal.string("7"), Literal.string(""),
]


def reference_order(rows, q):
    """The answer ``KnowledgeGraph.query`` built from solved ``rows`` before
    it sorted on flat keys: one tuple of term keys per row, nested in a
    pair with the ``order_by`` key, and one ``zip`` per answer row."""
    columns = [list(map(itemgetter(name), rows)) for name in q.select]
    keys = list(zip(*[list(map(term_sort_key, column)) for column in columns]))
    if q.order_by is not None:
        keys = list(zip(map(term_sort_key, map(itemgetter(q.order_by), rows)), keys))
    projected = list(zip(*columns))
    order = sorted(range(len(rows)), key=keys.__getitem__)
    out = [dict(zip(q.select, projected[i])) for i in order]
    return out if q.limit is None else out[: q.limit]


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.one_of(st.none(), st.integers(0, 6)))
def test_answers_come_in_the_reference_order(rng, ordered, limit):
    """Over random graphs and queries, with and without ``order_by`` and
    ``limit``, with one or several selected variables and duplicate rows,
    ``query`` returns exactly the list the reference builds from the same
    solved rows: ties keep the order the rows were solved in."""
    graph = KnowledgeGraph().insert(
        Triple(rng.choice(SUBJECTS), rng.choice(PREDICATES), rng.choice(ORDER_OBJECTS))
        for _ in range(rng.randrange(0, 200))
    )
    if rng.random() < 0.5:  # two open patterns: many rows, and duplicates once projected
        a, b, c = Var("a"), Var("b"), Var("c")
        where = ((a, rng.choice(PREDICATES), b), (a, rng.choice(PREDICATES), c))
        base = Query(tuple(rng.sample("abc", rng.randint(1, 3))), where)
    else:
        base = random_query(rng)
    names = sorted({t.name for pattern in base.where for t in pattern if isinstance(t, Var)})
    query = Query(base.select, base.where, base.filters,
                  rng.choice(names) if ordered else None, limit)
    rows = [r for r in graph._solve(query)
            if all(kg._filter_accepts(r, f) for f in query.filters)]
    assert [list(r.items()) for r in graph.query(query)] == [
        list(r.items()) for r in reference_order(rows, query)
    ]


# ---------------------------------------------------------------------------
# asserted and virtual patterns mixed, over a bound log


SOSA_SENSOR = iri("sosa:Sensor")
PART_OF = iri("isa88:isPartOf")
OBJECT_VARS = {
    SOSA_MADE_BY_SENSOR: "s",
    SOSA_HAS_SIMPLE_RESULT: "v",
    SOSA_RESULT_TIME: "t",
    PART_OF: "part",
}


def csv_observations(text):
    """The four observation triples of every sensor row, in file order."""
    triples = []
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        if row and row[1] == "sensor":
            obs = iri(f"ex:obs_{len(triples) // 4}")
            triples += [
                Triple(obs, RDF_TYPE, SOSA_OBSERVATION),
                Triple(obs, SOSA_MADE_BY_SENSOR, iri(f"ex:{row[2]}")),
                Triple(obs, SOSA_HAS_SIMPLE_RESULT, Literal.double(float(row[3]))),
                Triple(obs, SOSA_RESULT_TIME, Literal.double(float(row[0]))),
            ]
    return triples


def objects_of(triples, predicate):
    return sorted({t.object for t in triples if t.predicate == predicate}, key=str)


def random_mixed_case(rng, observations):
    """Asserted triples around the observations, and the terms queries use.

    Some observation triples are also asserted; others are asserted for
    observations the log does not have, or with objects the log disagrees on.
    """
    n_obs = len(observations) // 4
    sensors = objects_of(observations, SOSA_MADE_BY_SENSOR)
    objects = {
        RDF_TYPE: [SOSA_OBSERVATION, SOSA_SENSOR],
        SOSA_MADE_BY_SENSOR: sensors + [iri("ex:Nowhere"), Literal.string("L204")],
        SOSA_HAS_SIMPLE_RESULT: objects_of(observations, SOSA_HAS_SIMPLE_RESULT)
        + [Literal.double(-1.5), Literal.integer(8)],
        SOSA_RESULT_TIME: objects_of(observations, SOSA_RESULT_TIME)
        + [Literal.double(1e6)],
        PART_OF: [iri(f"ex:B{i}") for i in range(3)],
    }
    subjects = [
        iri("ex:obs_0"),
        iri(f"ex:obs_{n_obs - 1}"),
        iri(f"ex:obs_{rng.randrange(n_obs)}"),
        iri("ex:obs_01"),
        iri(f"ex:obs_{n_obs}"),
        iri("ex:obs_-1"),
        iri("ex:obs_"),
        iri("ex:extra0"),
        iri("ex:L204"),
        Iri("http://other.example/obs_1"),
        Literal.string("ex:obs_1"),
        Literal.integer(1),
    ]
    asserted = set(rng.sample(observations, 6))
    for _ in range(8):
        predicate = rng.choice([SOSA_MADE_BY_SENSOR, SOSA_HAS_SIMPLE_RESULT, SOSA_RESULT_TIME])
        subject = rng.choice(subjects[:3] + [iri("ex:extra0")])
        asserted.add(Triple(subject, predicate, rng.choice(objects[predicate])))
    asserted.add(Triple(iri("ex:extra0"), RDF_TYPE, SOSA_OBSERVATION))
    for sensor in sensors:
        asserted.add(Triple(sensor, RDF_TYPE, SOSA_SENSOR))
        asserted.add(Triple(sensor, PART_OF, rng.choice(objects[PART_OF])))
    return sorted(asserted, key=str), subjects, objects


def random_mixed_query(rng, subjects, objects):
    """Predicates, and the object of rdf:type, stay constant here; the
    shapes that leave them open are checked by open_queries()."""
    while True:
        patterns = []
        for _ in range(rng.randint(1, 3)):
            p = rng.choice(list(objects))
            if p == PART_OF:
                s = Var("s") if rng.random() < 0.8 else rng.choice(objects[SOSA_MADE_BY_SENSOR])
            else:
                s = Var("o") if rng.random() < 0.65 else rng.choice(subjects)
            if p == RDF_TYPE or rng.random() < 0.45:
                o = rng.choice(objects[p])
            else:
                o = Var("o" if rng.random() < 0.05 else OBJECT_VARS[p])
            patterns.append((s, p, o))
        used = sorted({t.name for pattern in patterns for t in pattern if isinstance(t, Var)})
        if used:
            break
    select = tuple(rng.sample(used, rng.randint(1, len(used))))
    filters = ()
    numeric = [name for name in used if name in ("v", "t")]
    if numeric and rng.random() < 0.3:
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        filters = (Filter(rng.choice(numeric), op, Literal.double(rng.choice([0.0, 5.0, 30.0]))),)
    return Query(select, tuple(patterns), filters)


def exact(row):
    return tuple((name, row[name]) for name in sorted(row))


def test_virtual_patterns_agree_with_bruteforce_oracle(tmp_path):
    lines = write_log_csv(simulate(default_config(), 1, (), 7)).splitlines(keepends=True)
    text = lines[0] + "".join(lines[300:350])
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8")
    observations = csv_observations(text)
    assert len(observations) >= 4 * 30
    assert len(objects_of(observations, SOSA_HAS_SIMPLE_RESULT)) > 7

    rng = random.Random(20261017)
    first, second = VirtualBinding(path), VirtualBinding(path)
    started = time.perf_counter()
    for case in range(40):
        asserted, subjects, objects = random_mixed_case(rng, observations)
        bindings = [first] if case % 4 else [first, second]
        graph = KnowledgeGraph(asserted, bindings)
        known = set(asserted)
        oracle_triples = asserted + len(bindings) * [
            t for t in observations if t not in known
        ]
        for _ in range(5):
            query = random_mixed_query(rng, subjects, objects)
            engine_rows = graph.query(query)
            oracle_rows = oracle_query(oracle_triples, query)
            assert Counter(map(exact, engine_rows)) == Counter(
                map(exact, oracle_rows)
            ), f"case {case}: {query}"
    # the file never changed, so each binding parsed it once
    assert (first.scan_count, second.scan_count) == (1, 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle comparison too slow: {elapsed:.1f}s"


# the shapes the query plan decides specially: a log pattern whose rdf:type
# object or predicate a per-row binding fixes, one variable as subject and
# object, a constant subject with a constant object, and asserted copies of
# log triples (each answered once); sensor ids spell observation names, so
# ex:obs_i madeBySensor ex:obs_i holds for some rows


PLANNED_ROWS = [
    (0, "sensor", "obs_0", "1"), (1, "sensor", "L1", "2.5"), (0, "sensor", "obs_2", "0"),
    (1, "actuator", "V1", "1"), (0, "sensor", "obs_0", "1"), (2, "sensor", "L1", "0"),
    (0, "sensor", "obs_5", "2.5"),
]
CLASS_OF, VIA = iri("ex:classOf"), iri("ex:via")
KINDS = [iri(f"ex:kind{k}") for k in "ABCD"]


def planned_queries():
    x, c, p = Var("x"), Var("c"), Var("p")
    queries = []
    for kind in KINDS:
        # ?c, then ?p, is bound per row by the first pattern
        queries.append(Query(("o", "c"), ((kind, CLASS_OF, c), (O, RDF_TYPE, c))))
        for obj in (iri("ex:L1"), SOSA_OBSERVATION):
            queries.append(Query(("o", "p"), ((kind, VIA, p), (O, p, obj))))
        if kind != KINDS[1]:  # whose ?p is rdf:type, and logs serve no ?o rdf:type ?s
            queries.append(Query(("o", "s", "p"), ((kind, VIA, p), (O, p, S))))
    queries.append(Query(("x",), ((x, SOSA_MADE_BY_SENSOR, x),)))
    queries.append(
        Query(("x", "v"), ((x, SOSA_MADE_BY_SENSOR, x), (x, SOSA_HAS_SIMPLE_RESULT, V)))
    )
    for row in range(8):  # the log has rows 0 to 5
        subject = iri(f"ex:obs_{row}")
        for sensor in ("L1", "obs_0", f"obs_{row}", "L9"):
            made_by = (subject, SOSA_MADE_BY_SENSOR, iri(f"ex:{sensor}"))
            queries.append(Query(("v",), (made_by, (subject, SOSA_HAS_SIMPLE_RESULT, V))))
        typed = (subject, RDF_TYPE, SOSA_OBSERVATION)
        queries.append(Query(("s",), (typed, (subject, SOSA_MADE_BY_SENSOR, S))))
    queries.append(Query(("o", "s"), ((O, SOSA_MADE_BY_SENSOR, S),)))
    queries.append(Query(("o",), ((O, RDF_TYPE, SOSA_OBSERVATION),)))
    queries.append(Query(("o", "t"), ((O, SOSA_RESULT_TIME, T), (O, RDF_TYPE, SOSA_OBSERVATION))))
    return queries


def test_planned_shapes_agree_with_bruteforce_oracle(tmp_path):
    text = LIVE_HEADER + render_rows(PLANNED_ROWS, 100)[0]
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8")
    observations = csv_observations(text)
    obs = [iri(f"ex:obs_{i}") for i in range(10)]
    copies = [
        Triple(obs[1], SOSA_MADE_BY_SENSOR, iri("ex:L1")),
        Triple(obs[2], RDF_TYPE, SOSA_OBSERVATION),
        Triple(obs[2], SOSA_MADE_BY_SENSOR, obs[2]),
        Triple(obs[5], SOSA_HAS_SIMPLE_RESULT, Literal.double(2.5)),
    ]
    assert set(copies) <= set(observations)
    others = [
        Triple(obs[9], SOSA_MADE_BY_SENSOR, obs[9]),  # beyond the log
        Triple(obs[4], SOSA_MADE_BY_SENSOR, iri("ex:L9")),  # the log disagrees
        Triple(obs[0], RDF_TYPE, SOSA_SENSOR),
        Triple(iri("ex:L1"), RDF_TYPE, SOSA_SENSOR),
        Triple(KINDS[0], CLASS_OF, SOSA_OBSERVATION),
        Triple(KINDS[1], CLASS_OF, SOSA_SENSOR),
        Triple(KINDS[2], CLASS_OF, iri("ex:Nothing")),
        Triple(KINDS[3], CLASS_OF, SOSA_OBSERVATION),
        Triple(KINDS[3], CLASS_OF, SOSA_SENSOR),
        Triple(KINDS[0], VIA, SOSA_MADE_BY_SENSOR),
        Triple(KINDS[1], VIA, RDF_TYPE),
        Triple(KINDS[2], VIA, CLASS_OF),
        Triple(KINDS[3], VIA, SOSA_MADE_BY_SENSOR),
        Triple(KINDS[3], VIA, SOSA_HAS_SIMPLE_RESULT),
    ]
    for asserted in ([], copies[:1], copies, others, copies + others):
        for n_bindings in (1, 2):
            bindings = [VirtualBinding(path) for _ in range(n_bindings)]
            graph = KnowledgeGraph(asserted, bindings)
            known = set(asserted)
            oracle_triples = asserted + n_bindings * [t for t in observations if t not in known]
            for query in planned_queries():
                engine_rows = graph.query(query)
                oracle_rows = oracle_query(oracle_triples, query)
                assert Counter(map(exact, engine_rows)) == Counter(
                    map(exact, oracle_rows)
                ), f"{len(asserted)} asserted, {n_bindings} bindings: {query}"
            assert [b.scan_count for b in bindings] == [1] * n_bindings


def test_a_query_whose_first_pattern_finds_nothing_reads_no_bound_file(tmp_path):
    binding = VirtualBinding(tmp_path / "missing.csv")
    graph = KnowledgeGraph([Triple(KINDS[0], CLASS_OF, SOSA_OBSERVATION)], [binding])
    for nothing in (  # logs served per row, and by a plan fixed for the query
        Query(("o",), ((KINDS[1], CLASS_OF, Var("c")), (O, RDF_TYPE, Var("c")))),
        Query(("o",), ((KINDS[1], CLASS_OF, Var("c")), (O, SOSA_MADE_BY_SENSOR, S))),
    ):
        assert graph.query(nothing) == []
    assert binding.scan_count == 0
    # the same join with a first pattern that finds a row reads the file
    found = Query(("o",), ((KINDS[0], CLASS_OF, Var("c")), (O, RDF_TYPE, Var("c"))))
    with pytest.raises(SourceUnavailable):
        graph.query(found)


def test_a_query_no_log_can_match_never_reads_the_log(tmp_path):
    binding = VirtualBinding(tmp_path / "missing.csv")
    b201, foo, plant = iri("ex:B201"), iri("ex:Foo"), iri("ex:Plant")
    graph = KnowledgeGraph([Triple(b201, RDF_TYPE, foo), Triple(b201, PART_OF, plant)], [binding])
    x, p = Var("x"), Var("p")
    # a constant rdf:type class, subject or predicate that no log row can have
    assert graph.query(Query(("x",), ((x, RDF_TYPE, foo),))) == [{"x": b201}]
    assert graph.query(Query(("p", "o"), ((b201, p, O),))) == [
        {"p": PART_OF, "o": plant}, {"p": RDF_TYPE, "o": foo}
    ]
    assert graph.query(Query(("s", "o"), ((S, PART_OF, O),))) == [{"s": b201, "o": plant}]
    assert binding.scan_count == 0
    with pytest.raises(SourceUnavailable):  # a pattern a log row may fit reads it
        graph.query(Query(("x",), ((x, RDF_TYPE, SOSA_OBSERVATION),)))
    # the pipeline's questions and context queries never need its eval log
    result = run_pipeline("blockage", tmp_path / "run")
    assert [source.scan_count for source in result.graph.virtual_sources] == [0]


# shapes that leave the predicate, or the object of rdf:type, open: a bound
# log answers them as it answers named predicates, and a log triple that is
# also asserted is still answered once


def open_queries():
    c, p, x = Var("c"), Var("p"), Var("x")
    queries = [
        Query(("o", "p", "v"), ((O, p, V),)),
        Query(("o", "c"), ((O, RDF_TYPE, c),)),
        Query(("x", "p"), ((x, p, x),)),
        Query(("o", "p"), ((O, p, iri("ex:L1")),)),
        Query(("o", "p"), ((O, p, SOSA_OBSERVATION),)),
        Query(("o", "p", "v"), ((O, SOSA_MADE_BY_SENSOR, iri("ex:L1")), (O, p, V))),
        Query(("o", "c", "v"), ((O, RDF_TYPE, c), (O, SOSA_HAS_SIMPLE_RESULT, V))),
    ]
    for subject in [iri(f"ex:obs_{row}") for row in (0, 2, 5, 6, 9)] + [iri("ex:L1")]:
        queries.append(Query(("p", "v"), ((subject, p, V),)))
        queries.append(Query(("c",), ((subject, RDF_TYPE, c),)))
        queries.append(Query(("p",), ((subject, p, subject),)))
    return queries


def test_open_shapes_agree_with_bruteforce_oracle(tmp_path):
    text = LIVE_HEADER + render_rows(PLANNED_ROWS, 100)[0]
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8")
    observations = csv_observations(text)
    copies = observations[1::5]  # of every predicate, ex:obs_0 madeBySensor ex:obs_0 first
    assert copies[0].object == copies[0].subject
    assert {t.predicate for t in copies} == {t.predicate for t in observations}
    obs = [iri(f"ex:obs_{i}") for i in range(10)]
    others = [
        Triple(obs[9], SOSA_MADE_BY_SENSOR, obs[9]),  # beyond the log
        Triple(obs[4], SOSA_MADE_BY_SENSOR, iri("ex:L9")),  # the log disagrees
        Triple(obs[0], RDF_TYPE, SOSA_SENSOR),
        Triple(obs[2], CLASS_OF, SOSA_OBSERVATION),  # a predicate no log has
        Triple(iri("ex:L1"), RDF_TYPE, SOSA_SENSOR),
    ]
    for asserted in ([], copies, others, copies + others):
        for n_bindings in (1, 2):
            bindings = [VirtualBinding(path) for _ in range(n_bindings)]
            graph = KnowledgeGraph(asserted, bindings)
            known = set(asserted)
            oracle_triples = asserted + n_bindings * [t for t in observations if t not in known]
            for query in open_queries():
                engine_rows = graph.query(query)
                oracle_rows = oracle_query(oracle_triples, query)
                assert Counter(map(exact, engine_rows)) == Counter(
                    map(exact, oracle_rows)
                ), f"{len(asserted)} asserted, {n_bindings} bindings: {query}"
            assert [b.scan_count for b in bindings] == [1] * n_bindings


# ---------------------------------------------------------------------------
# a bound log that changes between queries: the view a binding keeps (and
# cuts back and extends in place) versus a fresh binding's full scan


LIVE_HEADER = "t_s,kind,id,value\n"
O, S, V, T = Var("o"), Var("s"), Var("v"), Var("t")
LIVE_QUERIES = (
    Query(
        ("o", "s", "v", "t"),
        ((O, SOSA_MADE_BY_SENSOR, S), (O, SOSA_HAS_SIMPLE_RESULT, V), (O, SOSA_RESULT_TIME, T)),
    ),
    Query(("o",), ((O, RDF_TYPE, SOSA_OBSERVATION),)),
    *(
        Query(("o",), ((O, SOSA_MADE_BY_SENSOR, iri(f"ex:{sensor}")),))
        for sensor in ("L1", 'q"d', "L204")
    ),
    *(
        Query(("o",), ((O, SOSA_HAS_SIMPLE_RESULT, Literal.double(value)),))
        for value in (0.0, -0.0, 1.0)
    ),
    *(
        Query(("o",), ((O, SOSA_RESULT_TIME, Literal.double(t_s)),))
        for t_s in (0.1, 0.102, 0.105)
    ),
    *(
        Query(("v",), ((iri(f"ex:obs_{row}"), SOSA_HAS_SIMPLE_RESULT, V),))
        for row in (0, 3, 9)
    ),
)


def live_answers(graph):
    """Every live query's rows, or the error (its message holds the line)."""
    try:
        return [graph.query(query) for query in LIVE_QUERIES]
    except MixdiagError as exc:
        return type(exc).__name__, str(exc)


def assert_agrees_with_a_fresh_scan(graph, path):
    """The graph answers as a fresh binding of ``path`` does and, when the
    file parses, its observations are those the stdlib ``csv`` module reads."""
    answers = live_answers(graph)
    assert answers == live_answers(KnowledgeGraph((), [VirtualBinding(path)]))
    if isinstance(answers, list):
        observations = csv_observations(path.read_text(encoding="utf-8"))
        expected = [
            {"o": typed.subject, "s": s.object, "v": v.object, "t": t.object}
            for typed, s, v, t in zip(*[iter(observations)] * 4)
        ]
        assert Counter(map(exact, answers[0])) == Counter(map(exact, expected))
    return answers


# (ms after the previous row, kind, id, value) of valid rows; ids with a
# quote or a comma are written quoted
LIVE_DELTAS = st.sampled_from([0, 1, 1, 2])
LIVE_SENSOR_ROW = st.tuples(
    LIVE_DELTAS,
    st.just("sensor"),
    st.sampled_from(["L1", "L1", "L204", 'q"d', "a,b"]),
    st.sampled_from(["0", "1", "-0.0", "0.0", "2.5"]),
)
LIVE_ROWS = st.lists(
    st.one_of(
        *[LIVE_SENSOR_ROW] * 3,
        st.tuples(LIVE_DELTAS, st.just("actuator"), st.just("V1"), st.sampled_from("01")),
    ),
    min_size=1,
    max_size=5,
)
LIVE_OPS = st.lists(
    st.one_of(
        *[st.tuples(st.just("rows"), LIVE_ROWS)] * 3,
        st.tuples(
            st.just("raw"),  # blank lines, partial lines, quotes, a quoted tail
            st.sampled_from(
                ["\n", "\r\n", "0.2", "00,sensor,L1,", "1.0\n", '"', ',"1\n',
                 '0.000,sensor,x,"1\n', "x,y\n", "0.300,sensor,L1,2"]
            ),
        ),
        st.tuples(st.just("rewrite"), LIVE_ROWS),
        st.tuples(st.just("truncate"), st.floats(0, 1)),
        st.tuples(
            st.just("break"),  # a malformed or unsorted tail, then its repair
            st.sampled_from(
                ["0.000,sensor,L1,1.0\n", "9.000,sensor,L1,bad\n", "9,actuator,V1\n",
                 "9.000,gauge,L1,1\n", f"9,sensor,{'x' * 131_073},1\n"]
            ),
        ),
    ),
    max_size=12,
)


def render_rows(rows, clock):
    """CSV lines for ``rows``, timed from ``clock`` on; and the last time."""
    lines = []
    for delta, kind, rid, value in rows:
        clock += delta
        if '"' in rid or "," in rid:
            rid = '"' + rid.replace('"', '""') + '"'
        lines.append(f"{clock / 1000:.3f},{kind},{rid},{value}\n")
    return "".join(lines), clock


@example(  # a view of a partial last line is not a row boundary
    [("raw", "0.300,sensor,L1,2"), ("raw", "1.0\n")]
)
@example(  # a quoted tail is not a row boundary: only a full parse sees it
    [("raw", '0.000,sensor,x,"1\n'), ("rows", [(0, "sensor", "L1", "1")])]
)
@example(  # an error in an append carries the line number of the whole file
    [("rows", [(0, "sensor", "L1", "1"), (1, "sensor", "L1", "0")]),
     ("rows", [(1, "sensor", "L204", "bad")])]
)
@example(  # an append is checked against the last row of a full parse,
    # an actuator one here
    [("rows", [(0, "sensor", "L1", "0")]),
     ("rewrite", [(0, "sensor", "L1", "1"), (2, "actuator", "V1", "1")]),
     ("rows", [(-1, "sensor", "L1", "0")])]
)
@settings(max_examples=200, deadline=None)
@given(LIVE_OPS)
def test_changing_log_agrees_with_a_fresh_scan(tmp_path_factory, ops):
    path = tmp_path_factory.getbasetemp() / "changing_log.csv"
    text, clock = LIVE_HEADER, 100
    path.write_text(text, encoding="utf-8")
    graph = KnowledgeGraph((), [VirtualBinding(path)])
    assert_agrees_with_a_fresh_scan(graph, path)
    for op, arg in ops:
        if op == "rows":
            rows, clock = render_rows(arg, clock)
            text += rows
        elif op == "raw":
            text += arg
        elif op == "rewrite":
            rows, clock = render_rows(arg, 100)
            text = LIVE_HEADER + rows
        elif op == "truncate":  # anywhere after the header
            text = text[: len(LIVE_HEADER) + int((len(text) - len(LIVE_HEADER)) * arg)]
        else:
            path.write_text(text + arg, encoding="utf-8")
            for _ in range(2):  # a bad tail raises on every query
                assert_agrees_with_a_fresh_scan(graph, path)
        path.write_text(text, encoding="utf-8")
        assert_agrees_with_a_fresh_scan(graph, path)


def test_plant_log_appends_extend_the_view(tmp_path):
    lines = write_log_csv(simulate(default_config(), 1, (), 7)).splitlines(keepends=True)
    path = tmp_path / "live_log.csv"
    path.write_text("".join(lines[:200]), encoding="utf-8")
    binding = VirtualBinding(path)
    graph = KnowledgeGraph((), [binding])
    assert_agrees_with_a_fresh_scan(graph, path)
    for appends, start in enumerate(range(200, 410, 21), start=1):
        with path.open("a", encoding="utf-8") as f:
            f.write("".join(lines[start:start + 21]))
        assert isinstance(assert_agrees_with_a_fresh_scan(graph, path), list)
        assert (binding.scan_count, binding.append_count) == (1 + appends, appends)


def test_an_append_of_k_rows_parses_k_rows_at_any_log_length(tmp_path, monkeypatch):
    """Cost: once a bound log was queried, appending k sensor rows makes the
    next query decode only the appended bytes, parse those k rows and no
    others, and cut nothing from the view, over a 1-cycle and a 100-cycle
    plant log alike."""
    parsed, decoded, cut = [], [], []
    parse_rows, decode, cut_view = events._parse_rows, kg.decode, VirtualBinding._cut

    def counting_parse(*args):
        records = parse_rows(*args)
        parsed.append(len(records[1]))
        return records

    def counting_decode(data, *rest):
        decoded.append(len(data))
        return decode(data, *rest)

    def counting_cut(view, size):
        cut.append(view.size - size)
        cut_view(view, size)

    monkeypatch.setattr(events, "_parse_rows", counting_parse)
    monkeypatch.setattr(kg, "decode", counting_decode)
    monkeypatch.setattr(VirtualBinding, "_cut", counting_cut)
    query = Query(("o",), ((O, SOSA_MADE_BY_SENSOR, iri("ex:L204")),))
    k, sizes = 7, []
    for cycles in (1, 100):
        text = write_log_csv(simulate(default_config(), cycles, (), 7))
        path = tmp_path / f"log_{cycles}.csv"
        path.write_text(text, encoding="utf-8")
        binding = VirtualBinding(path)
        graph = KnowledgeGraph((), [binding])
        before = len(graph.query(query))
        end = float(text.rstrip("\n").rsplit("\n", 1)[1].split(",", 1)[0])
        appended = "".join(f"{end + i / 1000:.3f},sensor,L204,{i}.5\n" for i in range(1, k + 1))
        with path.open("a", encoding="utf-8") as f:
            f.write(appended)
        parsed.clear(), decoded.clear(), cut.clear()
        appends = binding.append_count
        assert len(graph.query(query)) == before + k
        assert parsed == [k]
        assert sum(decoded) == len(appended.encode("utf-8"))
        assert cut == [0]
        assert binding.append_count == appends + 1
        sizes.append(binding.size)
    assert sizes[1] > 50 * sizes[0]


def test_a_bound_time_query_reads_the_same_rows_at_any_log_length(tmp_path):
    """Cost: a snapshot query at one sample time reads from the view's
    columns the rows of that time and no others, over a 10-cycle and a
    100-cycle plant log alike: the time is looked up in its index and each
    observation it binds by its number."""
    reads = []

    class CountingColumn(list):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    counts, sizes = [], []
    for cycles in (10, 100):
        text = write_log_csv(simulate(default_config(), cycles, (), 7))
        rows = list(csv.reader(io.StringIO(text)))[1:]
        times = sorted({float(t) for t, kind, _, _ in rows if kind == "sensor"})
        query = Query(
            ("s", "v"),
            (
                (O, SOSA_RESULT_TIME, Literal.double(times[len(times) // 2])),
                (O, SOSA_MADE_BY_SENSOR, S),
                (O, SOSA_HAS_SIMPLE_RESULT, V),
            ),
        )
        path = tmp_path / f"log_{cycles}.csv"
        path.write_text(text, encoding="utf-8")
        binding = VirtualBinding(path)
        graph = KnowledgeGraph((), [binding])
        expected = graph.query(query)
        assert len(expected) == len(default_config().sensors)
        for predicate, column in binding.columns.items():
            binding.columns[predicate] = CountingColumn(column)
        reads.clear()
        assert graph.query(query) == expected
        counts.append(len(reads))
        sizes.append(binding.size)
    assert counts[0] == counts[1] == 3 * len(default_config().sensors)
    assert sizes[1] > 5 * sizes[0]


def test_a_snapshot_query_parses_no_observation_name(tmp_path, monkeypatch):
    """Cost: a row keeps the row number of the observation a bound log bound,
    so a snapshot query (three log patterns and one asserted) turns no
    ``ex:obs_{i}`` back into a row number; a constant ``ex:obs_5`` is
    parsed once; and a query of an unchanged file scans nothing."""
    parsed, scanned = [], []
    row_of, scan = VirtualBinding._row_of, VirtualBinding.scan

    def counting_row_of(binding, subject):
        parsed.append(subject)
        return row_of(binding, subject)

    def counting_scan(binding, data):
        scanned.append(len(data))
        return scan(binding, data)

    monkeypatch.setattr(VirtualBinding, "_row_of", counting_row_of)
    monkeypatch.setattr(VirtualBinding, "scan", counting_scan)
    config = default_config()
    text = write_log_csv(simulate(config, 1, (), 7))
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8")
    parts = [Triple(iri(f"ex:{s.id}"), PART_OF, iri(f"ex:{s.attached_to}")) for s in config.sensors]
    graph = KnowledgeGraph(parts, [VirtualBinding(path)])
    t_s = float(list(csv.reader(io.StringIO(text)))[-1][0])
    part = Var("part")
    snapshot = Query(
        ("s", "part", "v"),
        (
            (O, SOSA_RESULT_TIME, Literal.double(t_s)),
            (O, SOSA_MADE_BY_SENSOR, S),
            (O, SOSA_HAS_SIMPLE_RESULT, V),
            (S, PART_OF, part),
        ),
    )
    rows = graph.query(snapshot)
    assert sorted(r["part"] for r in rows) == sorted(t.object for t in parts)
    assert (parsed, len(scanned)) == ([], 1)
    assert graph.query(snapshot) == rows
    one = Query(("v",), ((iri("ex:obs_5"), SOSA_HAS_SIMPLE_RESULT, V),))
    assert len(graph.query(one)) == 1
    assert (parsed, len(scanned)) == ([iri("ex:obs_5")], 1)


def test_crlf_and_cr_line_ends_answer_as_line_feeds_do(tmp_path, monkeypatch):
    """A bound log's bytes are decoded as ``Path.read_text`` decodes a file:
    a CRLF and a CR copy of a plant log answer every live query as the LF
    log does, rewriting a bound LF log as CRLF is no new content, and a
    query of an unchanged file decodes nothing."""
    text = write_log_csv(simulate(default_config(), 1, (), 7))
    answers = {}
    for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.replace("\n", end).encode("utf-8"))
        answers[name] = live_answers(KnowledgeGraph((), [VirtualBinding(path)]))
    assert isinstance(answers["lf"], list) and all(answers["lf"][:2])
    assert answers["crlf"] == answers["lf"] and answers["cr"] == answers["lf"]

    path = tmp_path / "lf.csv"
    binding = VirtualBinding(path)
    graph = KnowledgeGraph((), [binding])
    live_answers(graph)
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert live_answers(graph) == answers["lf"]
    assert (binding.scan_count, binding.data) == (1, path.read_bytes())
    decoded = []
    monkeypatch.setattr(kg, "decode", decoded.append)
    assert live_answers(graph) == answers["lf"]
    assert decoded == []


@example(  # a rewind past a quoted row: the view keeps only the rows before it
    [(0, "sensor", "L1", "1"), (1, "sensor", 'q"d', "0"), (1, "sensor", "L1", "2.5")],
    [(0.7, 0, [(0, "sensor", "L204", "0")])],
)
@example(  # a rewind into a quoted field that spans lines
    [(0, "sensor", "L1", "1"), (1, "sensor", 'q"\nd', "0"), (1, "sensor", "L1", "2.5")],
    [(0.5, 0, [(0, "sensor", "L204", "0")])],
)
@example(  # the diverging rows are checked against the last kept row, an
    # actuator one here, and their errors carry the whole file's line numbers
    [(0, "sensor", "L1", "1"), (2, "actuator", "V1", "1"), (1, "sensor", "L1", "0")],
    [(0.7, 3, [(0, "sensor", "L1", "0")]), (0.7, 1, [(0, "sensor", "L1", "0")])],
)
@example(  # ids that spell a record kind do not count as sensor rows
    [(0, "sensor", "sensor", "1"), (1, "actuator", "sensor", "1"),
     (0, "sensor", "actuator", "0"), (1, "sensor", "L1", "2.5"), (0, "sensor", "L1", "1")],
    [(0.8, 0, [(0, "sensor", "L204", "0")])],
)
@settings(max_examples=150, deadline=None)
@given(
    st.lists(LIVE_ROWS, min_size=1, max_size=4).map(lambda parts: sum(parts, [])),
    st.lists(st.tuples(st.floats(0, 1), st.integers(0, 4), LIVE_ROWS), min_size=1, max_size=4),
)
def test_a_rewind_and_diverging_rows_agree_with_a_fresh_scan(tmp_path_factory, rows, changes):
    """Each change cuts the log back to a row boundary and writes rows timed
    from a few ms before the old end, before one query sees it."""
    path = tmp_path_factory.getbasetemp() / "rewound_log.csv"
    tail, clock = render_rows(rows, 100)
    text = LIVE_HEADER + tail
    path.write_text(text, encoding="utf-8")
    graph = KnowledgeGraph((), [VirtualBinding(path)])
    assert_agrees_with_a_fresh_scan(graph, path)
    for fraction, back, new_rows in changes:
        lines = text.splitlines(keepends=True)
        tail, clock = render_rows(new_rows, clock - back)
        text = "".join(lines[: 1 + int((len(lines) - 1) * fraction)]) + tail
        path.write_text(text, encoding="utf-8")
        assert_agrees_with_a_fresh_scan(graph, path)


def test_plant_log_rewinds_cut_the_view_back(tmp_path, monkeypatch):
    lines = write_log_csv(simulate(default_config(), 1, (), 7)).splitlines(keepends=True)
    path = tmp_path / "live_log.csv"
    path.write_text("".join(lines[:410]), encoding="utf-8")
    binding = VirtualBinding(path)
    graph = KnowledgeGraph((), [binding])
    assert_agrees_with_a_fresh_scan(graph, path)

    def whole_parse(text):
        raise AssertionError("the view was parsed whole")

    def state(view):
        return view.data, view.size, view.lines, view.last_ms, view.columns, view.indexes

    # rewinds to row boundaries, some grown back again; the kept view is the
    # one a whole parse builds, dropped terms and all
    for scans, end in enumerate((390, 250, 280, 251, 120, 121, 119, 2, 1, 30), start=2):
        path.write_text("".join(lines[:end]), encoding="utf-8")
        with monkeypatch.context() as patched:
            patched.setattr(events, "parse_log", whole_parse)
            answers = live_answers(graph)
        assert isinstance(answers, list)
        fresh = VirtualBinding(path)
        assert answers == live_answers(KnowledgeGraph((), [fresh]))
        assert state(binding) == state(fresh)
        assert (binding.scan_count, binding.append_count) == (scans, scans - 1)

    # a change within the header keeps nothing: the whole text is parsed
    path.write_text("t_s,kind,id,val\n" + "".join(lines[1:30]), encoding="utf-8")
    answers = assert_agrees_with_a_fresh_scan(graph, path)
    assert answers == ("ParseError", "line 1: bad header ['t_s', 'kind', 'id', 'val']")
    assert (binding.scan_count, binding.append_count) == (scans + 1, scans - 1)


def test_a_quoted_header_keeps_its_rows_and_a_header_change_parses_whole(tmp_path):
    """A quote in the header line leaves no field open, so an append under a
    quoted header keeps the rows before it; a change of the header line
    keeps nothing, so it is parsed whole and replaces the view that a
    binding already holds."""
    lines = write_log_csv(simulate(default_config(), 1, (), 7)).splitlines(keepends=True)
    quoted = '"t_s",kind,id,value\n'
    path = tmp_path / "live_log.csv"
    binding = VirtualBinding(path)
    graph = KnowledgeGraph((), [binding])

    def state(view):
        return view.data, view.size, view.lines, view.last_ms, view.columns, view.indexes

    # the third change appends under the quoted header: it keeps a prefix
    for scans, (header, end, appends) in enumerate(
        ((lines[0], 200, 0), (quoted, 120, 0), (quoted, 150, 1), (lines[0], 30, 1)), start=1
    ):
        path.write_text(header + "".join(lines[1:end]), encoding="utf-8")
        assert isinstance(assert_agrees_with_a_fresh_scan(graph, path), list)
        fresh = VirtualBinding(path)
        live_answers(KnowledgeGraph((), [fresh]))
        assert state(binding) == state(fresh)
        assert (binding.scan_count, binding.append_count) == (scans, appends)


# ---------------------------------------------------------------------------
# the inference closure


def naive_closure(asserted: frozenset[Triple]) -> frozenset[Triple]:
    """Forward chaining to fixpoint.

    Rules: subClassOf transitivity, type propagation along subClassOf,
    equivalence symmetry/transitivity with instance sharing between
    equivalent classes, and property propagation along ex:relationTo.
    """
    facts: set[Triple] = set(asserted)
    changed = True
    while changed:
        changed = False
        subclass = [(t.subject, t.object) for t in facts if t.predicate == RDFS_SUBCLASS_OF]
        equivalent = [(t.subject, t.object) for t in facts if t.predicate == EX_EQUIVALENT_TO]
        relation = [
            (t.subject, t.object)
            for t in facts
            if t.predicate == EX_RELATION_TO
            and isinstance(t.subject, Iri)
            and isinstance(t.object, Iri)
        ]
        types = [(t.subject, t.object) for t in facts if t.predicate == RDF_TYPE]

        fresh: list[Triple] = []
        # an attribute aligned to a class is an instance of that class
        fresh.extend(
            Triple(t.subject, RDF_TYPE, t.object)
            for t in facts
            if t.predicate == EX_ATTRIBUTE_TO_CLASS and isinstance(t.object, Iri)
        )
        super_of: dict[Term, set[Term]] = {}
        for sub, sup in subclass:
            super_of.setdefault(sub, set()).add(sup)
        for sub, sup in subclass:
            for supsup in super_of.get(sup, ()):
                fresh.append(Triple(sub, RDFS_SUBCLASS_OF, supsup))
        for instance, cls in types:
            for sup in super_of.get(cls, ()):
                fresh.append(Triple(instance, RDF_TYPE, sup))

        equiv_of: dict[Term, set[Term]] = {}
        for a, b in equivalent:
            equiv_of.setdefault(a, set()).add(b)
        for a, b in equivalent:
            fresh.append(Triple(b, EX_EQUIVALENT_TO, a))
            for c in equiv_of.get(b, ()):
                if c != a:
                    fresh.append(Triple(a, EX_EQUIVALENT_TO, c))
        if equiv_of:
            # equivalent terms share every assertion, in either position
            for fact in list(facts):
                for other in equiv_of.get(fact.subject, ()):
                    if isinstance(other, Iri):
                        fresh.append(Triple(other, fact.predicate, fact.object))
                for other in equiv_of.get(fact.object, ()):
                    fresh.append(Triple(fact.subject, fact.predicate, other))

        specific_to_general = {}
        for p, q in relation:
            specific_to_general.setdefault(p, set()).add(q)
        for t in list(facts):
            for general in specific_to_general.get(t.predicate, ()):
                fresh.append(Triple(t.subject, general, t.object))

        for t in fresh:
            if isinstance(t.subject, Literal):
                continue
            if t not in facts:
                facts.add(t)
                changed = True
    return frozenset(facts)


NODES = [iri(f"ex:n{i}") for i in range(5)]
PLAIN_PREDICATES = [iri("ex:p"), iri("ex:q")]
RULE_PREDICATES = [
    RDF_TYPE, RDFS_SUBCLASS_OF, EX_EQUIVALENT_TO, EX_RELATION_TO, EX_ATTRIBUTE_TO_CLASS
]
CLOSURE_LITERALS = [Literal.integer(1), Literal.string("n0")]

_nodes = st.sampled_from(NODES)
# two nodes double as predicates, so ex:relationTo can also reach them late,
# through equivalence sharing
_predicates = st.sampled_from(RULE_PREDICATES + PLAIN_PREDICATES + NODES[:2])
_any_fact = st.builds(Triple, _nodes, _predicates, st.sampled_from(NODES + CLOSURE_LITERALS))
_self_loop = st.builds(lambda x, p: Triple(x, p, x), _nodes, _predicates)


@st.composite
def closure_inputs(draw):
    """Random facts over every rule's predicate, plus one or two predicates
    aligned by ex:relationTo, often onto a rule's own predicate, each used by
    a fact whose subject gets up to two subclasses or instances.  That way a
    subclass edge, a type or an equivalence enters by relationTo after the
    facts it must join with."""
    facts = set(draw(st.frozensets(st.one_of(_any_fact, _any_fact, _self_loop), max_size=14)))
    specifics = st.sampled_from(PLAIN_PREDICATES + RULE_PREDICATES)
    generals = st.sampled_from(PLAIN_PREDICATES + [RDFS_SUBCLASS_OF, RDF_TYPE, EX_EQUIVALENT_TO])
    for specific in draw(st.lists(specifics, min_size=1, max_size=2, unique=True)):
        subject = draw(_nodes)
        facts.add(Triple(specific, EX_RELATION_TO, draw(generals)))
        facts.add(Triple(subject, specific, draw(_nodes)))
        for _ in range(draw(st.integers(0, 2))):
            below = draw(st.sampled_from([RDFS_SUBCLASS_OF, RDF_TYPE]))
            facts.add(Triple(draw(_nodes), below, subject))
    return frozenset(facts)


# a subclass edge n0 -> n1 enters by relationTo after n2 -> n0 is known
@example(
    frozenset(
        {
            Triple(PLAIN_PREDICATES[0], EX_RELATION_TO, RDFS_SUBCLASS_OF),
            Triple(NODES[0], PLAIN_PREDICATES[0], NODES[1]),
            Triple(NODES[2], RDFS_SUBCLASS_OF, NODES[0]),
        }
    )
)
@settings(max_examples=400, deadline=None)
@given(closure_inputs())
def test_closure_agrees_with_naive_oracle(asserted):
    assert KnowledgeGraph(asserted).all_triples() == naive_closure(asserted)


# ---------------------------------------------------------------------------
# insert sequences: every snapshot against the naive closure of its own
# asserted set, however its closure was carried over from its parents


_any_subject = st.sampled_from(NODES + CLOSURE_LITERALS)  # literals too
_batch_fact = st.builds(
    lambda s, p, o: [Triple(s, p, o)], _any_subject, _predicates,
    st.sampled_from(NODES + CLOSURE_LITERALS),
)
_hierarchy_fact = st.builds(
    lambda s, p, o: [Triple(s, p, o)], _nodes, st.sampled_from([RDFS_SUBCLASS_OF, RDF_TYPE]),
    _nodes,
)
_equivalence_cycle = st.lists(_nodes, min_size=1, max_size=3, unique=True).map(
    lambda ring: [Triple(a, EX_EQUIVALENT_TO, b) for a, b in zip(ring, ring[1:] + ring[:1])]
)
_onto_rule = st.builds(
    lambda specific, rule: [Triple(specific, EX_RELATION_TO, rule)],
    st.sampled_from(PLAIN_PREDICATES + NODES[:2]), st.sampled_from(RULE_PREDICATES),
)
_batches = st.lists(
    st.one_of(_batch_fact, _hierarchy_fact, _hierarchy_fact, _equivalence_cycle, _onto_rule),
    min_size=1, max_size=4,
).map(lambda parts: [t for part in parts for t in part])
# taken modulo the number of snapshots so far: the root, its first children,
# or the newest ones, so that parents branch often
_snapshot = st.integers(-2, 2)
_probe_terms = st.sampled_from(NODES + CLOSURE_LITERALS)
_insert = st.tuples(st.just("insert"), _snapshot, _batches)
INSERT_OPS = st.lists(
    st.one_of(
        _insert, _insert, _insert,
        # a triple the parent already knows: asserted, derived, or derived
        # by subclass transitivity
        st.tuples(st.just("reinsert"), _snapshot, st.sampled_from(["known", "chained"]),
                  st.integers(0, 999)),
        st.tuples(st.just("infer"), _snapshot),
        st.tuples(st.just("all_triples"), _snapshot),
        # let go of a snapshot, so that its parent may cut the shared
        # closure back instead of closing afresh
        st.tuples(st.just("drop"), _snapshot),
        *[st.tuples(st.just("query"), _snapshot,
                    st.sampled_from(["?x p C", "C p ?x", "?x ?p C"]),
                    st.sampled_from(RULE_PREDICATES + PLAIN_PREDICATES), _probe_terms)] * 2,
    ),
    max_size=14,
)


def probe_query(shape, predicate, term) -> Query:
    x, p = Var("x"), Var("p")
    if shape == "?x p C":
        return Query(("x",), ((x, predicate, term),))
    if shape == "C p ?x":
        return Query(("x",), ((term, predicate, x),))
    return Query(("x", "p"), ((x, p, term),))


A, B, C = NODES[:3]
SUB, EQUIV = RDFS_SUBCLASS_OF, EX_EQUIVALENT_TO


# two children of one parent, the second typing under the parent's subclass
# edge after the first extended, then the parent queried
@example(
    frozenset({Triple(A, SUB, B), Triple(C, RDF_TYPE, A)}), True,
    [("insert", 0, [Triple(B, SUB, C)]), ("infer", 1),
     ("insert", 0, [Triple(NODES[3], RDF_TYPE, A)]), ("query", 2, "?x p C", RDF_TYPE, B),
     ("query", 0, "?x p C", RDF_TYPE, B), ("all_triples", 0)],
)
# a derived subclass fact asserted again, under a child not yet inferred
@example(
    frozenset({Triple(A, SUB, B), Triple(B, SUB, C)}), True,
    [("reinsert", 0, "chained", 0), ("insert", 1, [Triple(C, SUB, A)]),
     ("query", 2, "?x p C", SUB, A), ("query", 1, "C p ?x", SUB, A)],
)
# a child dropped after it extended, then a second child of its parent
@example(
    frozenset({Triple(A, SUB, B), Triple(C, RDF_TYPE, A)}), True,
    [("insert", 0, [Triple(B, SUB, C), Triple(NODES[3], EQUIV, A)]), ("infer", 1),
     ("drop", 1), ("insert", 0, [Triple(NODES[3], RDF_TYPE, B)]),
     ("query", 2, "?x p C", RDF_TYPE, B), ("query", 0, "?x p C", RDF_TYPE, B)],
)
# a literal subject and an equivalence cycle that carries it on
@example(
    frozenset(), False,
    [("insert", 0, [Triple(CLOSURE_LITERALS[0], PLAIN_PREDICATES[0], A)]), ("infer", 1),
     ("insert", 1, [Triple(A, EQUIV, B), Triple(B, EQUIV, A)]),
     ("query", 2, "?x ?p C", RDF_TYPE, B)],
)
@settings(max_examples=200, deadline=None)
@given(closure_inputs(), st.booleans(), INSERT_OPS)
def test_insert_sequences_agree_with_naive_closure(initial, materialized, ops):
    start = KnowledgeGraph(initial)
    snapshots = [start.infer() if materialized else start]
    naive = [naive_closure(start.asserted)]
    checked = {0} if materialized else set()  # snapshots whose closure was read
    answers: dict[tuple[int, Query], list] = {}

    for op, index, *args in ops:
        index %= len(snapshots)
        graph = snapshots[index]
        if graph is None:
            continue
        if op == "drop":
            snapshots[index] = graph = None
            checked.discard(index)
            answers = {key: rows for key, rows in answers.items() if key[0] != index}
        elif op in ("insert", "reinsert"):
            if op == "insert":
                batch = args[0]
            else:
                kind, k = args
                pool = sorted(naive[index], key=str)
                if kind == "chained":
                    pool = [t for t in pool if t.predicate == SUB and t not in graph.asserted]
                batch = [pool[k % len(pool)]] if pool else []
            snapshots.append(graph.insert(batch))
            naive.append(naive_closure(snapshots[-1].asserted))
        elif op == "infer":
            assert graph.infer() is graph
            checked.add(index)
        elif op == "all_triples":
            checked.add(index)
        else:
            query = probe_query(*args)
            rows = graph.query(query)
            expected = oracle_query(list(naive[index]), query)
            assert Counter(map(canonical, rows)) == Counter(map(canonical, expected))
            answers.setdefault((index, query), rows)
            checked.add(index)
        for i in checked:
            assert snapshots[i].all_triples() == naive[i], f"snapshot {i} after {op}"
        for (i, query), rows in answers.items():
            assert snapshots[i].query(query) == rows, f"snapshot {i} changed its answer"


def test_branches_with_fresh_terms_leave_their_parent_numbering_bounded():
    root = KnowledgeGraph([Triple(A, SUB, B), Triple(C, RDF_TYPE, A)]).infer()
    start_terms = len(root._state().terms)
    for round_ in range(20):
        child = root.insert([Triple(iri(f"ex:fresh{round_}"), RDF_TYPE, A)]).infer()
        grandchild = child.insert([Triple(iri(f"ex:more{round_}"), SUB, B)]).infer()
        assert len(grandchild._state().terms) == start_terms + 2
        # the root answers as before, from its own numbering only
        assert len(root._state().terms) == start_terms
        assert root.all_triples() == naive_closure(root.asserted)
        assert child.all_triples() == naive_closure(child.asserted)


def test_a_parent_whose_children_are_gone_cuts_its_closure_back_in_place():
    root = KnowledgeGraph([Triple(A, SUB, B), Triple(C, RDF_TYPE, A)]).infer()
    state = root._state()
    start = state.size()
    expected = naive_closure(root.asserted)
    for round_ in range(20):
        graph = root
        for step in range(3):
            graph = graph.insert([
                Triple(iri(f"ex:fresh{round_}_{step}"), SUB, A),
                Triple(iri(f"ex:alias{step}"), EQUIV, B),
            ]).infer()
        assert graph.all_triples() == naive_closure(graph.asserted)
        assert graph._state() is state and state.size() > start
        del graph
        # no snapshot stands for more than the root's prefix: no fresh closure
        assert root._state() is state and state.size() == start
        assert root.all_triples() == expected
    # the same facts, flags and index entries as a closure computed afresh
    fresh = KnowledgeGraph(root.asserted)._state()
    assert list(state.facts.items()) == list(fresh.facts.items())
    assert state.terms == fresh.terms
    for cut, computed in zip(state._indexes(), fresh._indexes()):
        assert {key: entries for key, entries in cut.items() if entries} == computed


# ---------------------------------------------------------------------------
# deep hierarchies: the generators above draw from five nodes, so no chain
# there is deeper than four classes


def test_a_leaf_insert_closes_in_the_same_rounds_at_any_depth(monkeypatch):
    """A new bottom class and its instance reach every superclass in a fixed
    number of rounds, each derived fact indexed once, and add one edge."""
    calls = []
    index = _Closure._index

    def counting(closure, delta, edges):
        calls.append((list(delta), list(edges)))
        index(closure, delta, edges)

    monkeypatch.setattr(_Closure, "_index", counting)
    rounds = {}
    for n in (15, 30, 60):
        classes = [iri(f"ex:Chain{i}") for i in range(n)]
        chain = KnowledgeGraph(
            [Triple(sub, SUB, sup) for sup, sub in zip(classes, classes[1:])]
            + [Triple(iri(f"ex:unit{i}_{j}"), RDF_TYPE, c)
               for i, c in enumerate(classes) for j in range(2)]
        ).infer()
        before = chain.all_triples()
        leaf = Triple(iri("ex:Leaf"), SUB, classes[-1])
        calls.clear()
        child = chain.insert([leaf, Triple(iri("ex:leaf0"), RDF_TYPE, iri("ex:Leaf"))]).infer()
        terms = child._state().terms

        def named(facts):
            return [Triple(*map(terms.__getitem__, fact)) for fact in facts]

        indexed = named(fact for delta, _ in calls for fact in delta)
        assert len(indexed) == len(set(indexed))
        assert set(indexed) == child.all_triples() - before
        assert named(edge for _, edges in calls for edge in edges) == [leaf]
        rounds[n] = len(calls)
    assert len(set(rounds.values())) == 1 and rounds[15] <= 3, rounds


def test_a_child_after_a_cut_back_joins_none_of_its_parents_facts(monkeypatch):
    """Cost: after an episode of children (a subclass batch, an equivalence
    batch and an ex:relationTo batch) is dropped, a new child of the root
    indexes only the facts it adds to the root's closure, each once: the
    root cut its closure back instead of closing it afresh."""
    classes = [iri(f"ex:Chain{i}") for i in range(20)]
    units = [iri(f"ex:unit{i}") for i in range(20)]
    root = KnowledgeGraph(
        [Triple(sub, SUB, sup) for sup, sub in zip(classes, classes[1:])]
        + [Triple(unit, RDF_TYPE, c) for unit, c in zip(units, classes)]
    ).infer()
    before = root.all_triples()
    calls = []
    index = _Closure._index

    def counting(closure, delta, edges):
        calls.append(list(delta))
        index(closure, delta, edges)

    monkeypatch.setattr(_Closure, "_index", counting)
    for round_ in range(3):
        leaf, alias, feeds = (iri(f"ex:{name}{round_}") for name in ("Leaf", "Alias", "feeds"))
        graph = root
        for batch in (
            [Triple(leaf, SUB, classes[-1]), Triple(iri(f"ex:leaf{round_}"), RDF_TYPE, leaf)],
            [Triple(alias, EQUIV, classes[5]), Triple(iri(f"ex:alias{round_}"), RDF_TYPE, alias)],
            [Triple(feeds, EX_RELATION_TO, iri("ex:connectedTo")),
             Triple(units[1], feeds, units[2])],
        ):
            graph = graph.insert(batch).infer()
        assert graph.all_triples() == naive_closure(graph.asserted)
        del graph
        calls.clear()
        new = iri(f"ex:New{round_}")
        child = root.insert([Triple(new, SUB, classes[3]),
                             Triple(iri(f"ex:new{round_}"), RDF_TYPE, new)]).infer()
        terms = child._state().terms
        indexed = [Triple(*map(terms.__getitem__, fact)) for delta in calls for fact in delta]
        assert len(indexed) == len(set(indexed))
        assert set(indexed) == child.all_triples() - before
        del child


SPECIAL_OF = iri("ex:specialOf")  # specialises rdfs:subClassOf once declared
DEEP_OPS = st.lists(
    st.tuples(
        st.sampled_from(["leaf", "leaf", "loose", "link", "top", "alias", "relation", "undo",
                         "undo"]),
        st.integers(0, 999),
    ),
    min_size=1, max_size=10,
)


# the walk from ex:Deep6 in the round the new top's edge enters sees it
@example(12, 1, [("relation", 0)])
@settings(max_examples=25, deadline=None)
@given(st.integers(12, 20), st.integers(1, 3), DEEP_OPS)
def test_deep_hierarchy_inserts_agree_with_naive_closure(length, per_class, ops):
    """Inserts into a chain of 12-20 classes: leaf links, mid-chain links of
    new classes and of subtrees inserted earlier, new top classes, aliases
    of mid-chain classes and subclass edges that enter by ex:relationTo.
    Each snapshot is inferred from its parent and from scratch; ``undo``
    drops the newest, so its parent cuts the shared closure back."""
    chain = [iri(f"ex:Deep{i}") for i in range(length)]  # top first
    initial = [Triple(sub, SUB, sup) for sup, sub in zip(chain, chain[1:])]
    initial += [Triple(iri(f"ex:deep{i}_{j}"), RDF_TYPE, c)
                for i, c in enumerate(chain) for j in range(per_class)]
    # a use of the specialisation before it is declared
    initial += [Triple(iri("ex:Side"), SPECIAL_OF, chain[length // 2]),
                Triple(iri("ex:side0"), RDF_TYPE, iri("ex:Side"))]
    # each snapshot with its top and bottom class and its unlinked subtrees
    snapshots = [(KnowledgeGraph(initial).infer(), chain[0], chain[-1], ())]
    for step, (op, k) in enumerate(ops):
        graph, top, bottom, loose = snapshots[-1]
        if op == "undo":
            if len(snapshots) > 1:
                del snapshots[-1], graph  # no reference keeps it alive
                graph, top = snapshots[-1][:2]
                query = Query(("x",), ((Var("x"), RDF_TYPE, top),))
                expected = {t.subject for t in naive_closure(graph.asserted)
                            if t.predicate == RDF_TYPE and t.object == top}
                assert {row["x"] for row in graph.query(query)} == expected
            continue
        new, below, unit = iri(f"ex:New{step}"), iri(f"ex:Below{step}"), iri(f"ex:unit{step}")
        mid = chain[1 + k % (length - 2)]
        batch = [Triple(unit, RDF_TYPE, new)]
        if op == "leaf":
            batch.append(Triple(new, SUB, bottom))
            bottom = new
        elif op == "loose":
            batch += [Triple(below, SUB, new), Triple(iri(f"ex:below{step}"), RDF_TYPE, below)]
            loose += (new,)
        elif op == "link" and loose:
            batch = [Triple(loose[0], SUB, mid)]
            loose = loose[1:]
        elif op == "link":
            batch.append(Triple(new, SUB, mid))
        elif op == "top":
            batch.append(Triple(top, SUB, new))
            top = new
        elif op == "alias":
            batch += [Triple(new, EQUIV, mid), Triple(below, SUB, new)]
        else:  # the first declares ex:Side's edge, in the round a new top's
            batch = [Triple(SPECIAL_OF, EX_RELATION_TO, SUB), Triple(top, SPECIAL_OF, new),
                     Triple(unit, RDF_TYPE, chain[length // 2])]
            top = new
        child = graph.insert(batch).infer()
        expected = naive_closure(child.asserted)
        assert child.all_triples() == expected, f"{op} at step {step}"
        assert KnowledgeGraph(child.asserted).all_triples() == expected
        snapshots.append((child, top, bottom, loose))
        del child
