"""Log parsing and event-trace construction."""

import pytest
from hypothesis import given, settings, strategies as st

from mixdiag.cli import main
from mixdiag.errors import MixdiagError, ParseError
from mixdiag.events import (
    ActuatorVector,
    EmptyLog,
    InvalidMergeWindow,
    _parse_rows,
    build_label,
    parse_label,
    parse_log,
    split_cycles,
    to_trace,
)
from mixdiag.plant import simulate, write_log_csv

HEADER = "t_s,kind,id,value\n"


def csv_doc(*rows):
    return HEADER + "".join(",".join(map(str, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# parse_log


def test_header_only_is_an_empty_log():
    log = parse_log(HEADER)
    assert log.actuator_records == [] and log.sensor_records == []


def test_round_trip_through_csv(config, train_log):
    again = parse_log(write_log_csv(train_log))
    assert again.actuator_records == train_log.actuator_records
    assert again.sensor_records == train_log.sensor_records


def test_bad_header_rejected():
    with pytest.raises(ParseError):
        parse_log("time,kind,id,value\n")


def test_unknown_kind_reports_line_number():
    doc = csv_doc((0, "actuator", "V1", 1), (1, "gauge", "L1", 2.0))
    with pytest.raises(ParseError) as err:
        parse_log(doc)
    assert "line 3" in str(err.value)


def test_actuator_value_must_be_binary():
    with pytest.raises(ParseError):
        parse_log(csv_doc((0, "actuator", "V1", 2)))


def test_unsorted_timestamps_rejected():
    doc = csv_doc((5, "actuator", "V1", 1), (4, "actuator", "V1", 0))
    with pytest.raises(ParseError) as err:
        parse_log(doc)
    assert "sorted" in str(err.value)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e308"])
def test_non_finite_timestamp_reports_line_number(raw):
    doc = csv_doc((0, "actuator", "V1", 1), (raw, "actuator", "V1", 0))
    with pytest.raises(ParseError) as err:
        parse_log(doc)
    assert err.value.line == 3


@pytest.mark.parametrize("raw", ["-1", "-0.0004"])
def test_negative_timestamp_reports_line_number(raw):
    doc = csv_doc((raw, "actuator", "V1", 1), (0, "actuator", "V1", 0))
    with pytest.raises(ParseError) as err:
        parse_log(doc)
    assert err.value.line == 2
    assert "negative" in str(err.value)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_sensor_value_reports_line_number(raw):
    doc = csv_doc((0, "actuator", "V1", 1), (1, "sensor", "L1", raw))
    with pytest.raises(ParseError) as err:
        parse_log(doc)
    assert err.value.line == 3


def test_wrong_column_count_rejected():
    with pytest.raises(ParseError):
        parse_log(HEADER + "1,actuator,V1\n")


def test_blank_lines_tolerated():
    doc = HEADER + "\n" + "0,actuator,V1,1\n" + "\n"
    log = parse_log(doc)
    assert len(log.actuator_records) == 1


# lines the csv module cannot read: a field over its 131,072-character
# limit, and a carriage return inside an unquoted field
OVERSIZED_FIELD = f"1,sensor,{'x' * 131_073},1.0\n"
BARE_CR = "1,sensor,L1\rx,1.0\n"


@pytest.mark.parametrize("line", [OVERSIZED_FIELD, BARE_CR], ids=["oversized", "bare-cr"])
def test_unreadable_csv_line_reports_line_number(line):
    with pytest.raises(ParseError) as err:
        parse_log(csv_doc((0, "actuator", "V1", 1)) + line)
    assert err.value.line == 3


def test_cli_reports_unreadable_csv_line(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text(csv_doc((0, "actuator", "V1", 1)) + OVERSIZED_FIELD, encoding="utf-8")
    assert main(["trace", "--log", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and "Traceback" not in err


def test_row_errors_report_physical_line_numbers():
    # the quoted id spans lines 2-3, so the bad row is on line 4
    doc = HEADER + '0.000,sensor,"a\nb",1.0\n0.001,sensor,x,bad\n'
    with pytest.raises(ParseError) as err:
        parse_log(doc)
    assert str(err.value) == "line 4: bad sensor value 'bad'"


# Text near the log format: header, record-like rows built from fields that
# hit each check, quotes that open multi-line fields, and stray characters.
LOG_FIELDS = st.sampled_from(
    ["0", "1", "2", "0.004", "-1", "nan", "1e400", "actuator", "sensor", "gauge",
     "V1", "L1", "", '"', '"a\nb"', "\r", "\x00", "x" * 131_073]
)
LOG_LINES = st.one_of(
    st.just(HEADER.rstrip("\n")),
    st.lists(LOG_FIELDS, max_size=5).map(",".join),
    st.text(max_size=12),
)
LOG_TEXTS = st.one_of(
    st.text(),
    st.builds(
        lambda lines, end: "\n".join(lines) + end,
        st.lists(LOG_LINES, max_size=8),
        st.sampled_from(["", "\n", "\r\n"]),
    ),
)


def assert_parses_or_raises_within(parse, text, first_line):
    """``parse`` returns, or raises ParseError on a line of ``text``, which
    starts on ``first_line``; any other exception fails the test."""
    try:
        parse()
    except ParseError as exc:
        assert first_line <= exc.line <= first_line + text.count("\n"), exc


@settings(max_examples=300, deadline=None)
@given(LOG_TEXTS)
def test_parse_log_returns_a_log_or_a_located_parse_error(text):
    assert_parses_or_raises_within(lambda: parse_log(text), text, 1)


@settings(max_examples=300, deadline=None)
@given(LOG_TEXTS, st.integers(1, 10**6), st.one_of(st.none(), st.integers(0, 10)))
def test_suffix_parse_returns_rows_or_a_located_parse_error(text, first_line, prev_ms):
    assert_parses_or_raises_within(
        lambda: _parse_rows(text, first_line, prev_ms), text, first_line
    )


# ---------------------------------------------------------------------------
# to_trace


def test_trace_dwells_are_exact(config, train_trace):
    assert train_trace.steps[1].dwell_s == 20.0
    assert all(s.dwell_s > 0 for s in train_trace.steps)


def test_trace_timestamps_accumulate(config, train_trace):
    t = 0.0
    for step in train_trace.steps:
        t = round(t + step.dwell_s, 3)
        assert step.t_s == t


def test_empty_log_raises():
    with pytest.raises(EmptyLog):
        to_trace(parse_log(HEADER), ["V1"])


def test_unknown_actuator_id_rejected():
    log = parse_log(csv_doc((0, "actuator", "V9", 1)))
    with pytest.raises(MixdiagError):
        to_trace(log, ["V1"])


def test_initial_vector_comes_from_first_group():
    doc = csv_doc(
        (0, "actuator", "V1", 1),
        (0, "actuator", "V2", 0),
        (5, "actuator", "V1", 0),
    )
    trace = to_trace(parse_log(doc), ["V1", "V2"])
    assert trace.initial_vector.as_dict() == {"V1": True, "V2": False}
    assert len(trace.steps) == 1
    assert trace.steps[0].label == "V1↓"
    assert trace.steps[0].dwell_s == 5.0


def test_partial_first_group_defaults_missing_ids_to_off():
    doc = csv_doc((0, "actuator", "V2", 1))
    trace = to_trace(parse_log(doc), ["V1", "V2"])
    assert trace.initial_vector.as_dict() == {"V1": False, "V2": True}


def test_simultaneous_changes_merge_into_one_event():
    doc = csv_doc(
        (0, "actuator", "V1", 1),
        (0, "actuator", "V2", 0),
        (7, "actuator", "V1", 0),
        (7, "actuator", "V2", 1),
    )
    trace = to_trace(parse_log(doc), ["V1", "V2"])
    assert len(trace.steps) == 1
    assert trace.steps[0].label == "V1↓,V2↑"


def test_no_op_records_produce_no_step():
    doc = csv_doc(
        (0, "actuator", "V1", 0),
        (3, "actuator", "V1", 0),  # repeats the current value
        (9, "actuator", "V1", 1),
    )
    trace = to_trace(parse_log(doc), ["V1"])
    assert [s.label for s in trace.steps] == ["V1↑"]
    # dwell counts from the trace start, not from the no-op record
    assert trace.steps[0].dwell_s == 9.0


def test_to_trace_derives_each_distinct_move_once(config, monkeypatch):
    """The 100-cycle log has 700 steps but 7 distinct moves, since 98 of its
    cycles are replays: ``apply`` runs once per move, not once per step."""
    log = simulate(config, 100)
    applied = []
    apply = ActuatorVector.apply
    monkeypatch.setattr(
        ActuatorVector, "apply", lambda self, changes: applied.append(1) or apply(self, changes)
    )
    trace = to_trace(log, config)
    before = (trace.initial_vector, *(step.resulting_vector for step in trace.steps))
    moves = {(vector, step.label) for vector, step in zip(before, trace.steps)}
    assert len(trace.steps) == 700
    assert len(applied) <= len(moves) == 7


def test_merge_window_groups_nearby_changes():
    doc = csv_doc(
        (0, "actuator", "V1", 0),
        (0, "actuator", "V2", 0),
        (10.0, "actuator", "V1", 1),
        (10.3, "actuator", "V2", 1),
    )
    trace = to_trace(parse_log(doc), ["V1", "V2"], merge_window_s=0.5)
    assert len(trace.steps) == 1
    assert trace.steps[0].label == "V1↑,V2↑"
    assert trace.steps[0].t_s == 10.0
    without = to_trace(parse_log(doc), ["V1", "V2"])
    assert [s.label for s in without.steps] == ["V1↑", "V2↑"]


@pytest.mark.parametrize("window", [float("inf"), float("nan"), -5.0, 1e308])
def test_to_trace_rejects_bad_merge_window(window, config):
    # 1e308 s is finite but overflows to infinity in milliseconds
    with pytest.raises(InvalidMergeWindow, match="merge window must be finite and >= 0"):
        to_trace(simulate(config, 1), config, merge_window_s=window)


@pytest.mark.parametrize("window", ["inf", "nan", "-5", "1e308"])
def test_cli_trace_rejects_bad_merge_window(window, config, tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text(write_log_csv(simulate(config, 1)), encoding="utf-8")
    out = tmp_path / "trace.json"
    argv = ["trace", "--log", str(path), "--merge-window", window, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: merge window must be finite and >= 0")
    assert "Traceback" not in err
    assert not out.exists()


def test_last_value_wins_inside_a_merge_group():
    doc = csv_doc(
        (0, "actuator", "V1", 0),
        (10.0, "actuator", "V1", 1),
        (10.2, "actuator", "V1", 0),
    )
    trace = to_trace(parse_log(doc), ["V1"], merge_window_s=0.5)
    # the group nets out to no change at all
    assert trace.steps == ()


# ---------------------------------------------------------------------------
# split_cycles


def test_split_yields_one_trace_per_cycle(train_trace):
    cycles = split_cycles(train_trace, train_trace.initial_vector)
    assert len(cycles) == 10
    assert all(len(c.steps) == 7 for c in cycles)
    for c in cycles:
        assert c.initial_vector == train_trace.initial_vector
        assert c.steps[-1].resulting_vector == train_trace.initial_vector


def test_split_reconstructs_the_original_step_sequence(train_trace):
    cycles = split_cycles(train_trace, train_trace.initial_vector)
    flattened = [s for c in cycles for s in c.steps]
    assert flattened == list(train_trace.steps)


def test_split_without_idle_entries_returns_whole_trace(train_trace):
    never = ActuatorVector.from_mapping(
        {aid: True for aid in train_trace.initial_vector.ids()}
    )
    assert split_cycles(train_trace, never) == [train_trace]


def test_split_mid_cycle_start(config, train_trace):
    # drop the first two steps so the trace starts inside a cycle
    from mixdiag.events import EventTrace

    tail = EventTrace(train_trace.steps[1].resulting_vector, train_trace.steps[2:])
    cycles = split_cycles(tail, train_trace.initial_vector)
    assert len(cycles) == 10
    assert len(cycles[0].steps) == 5  # the partial first cycle


# ---------------------------------------------------------------------------
# actuator vectors


@pytest.mark.parametrize(
    "values",
    [{"V201": "false"}, {"V201": 1}, {7: True}],
    ids=["string-value", "int-value", "int-id"],
)
def test_vector_refuses_to_coerce_ids_and_values(values):
    """``{"V201": "false", 7: 1}`` read as two actuators on, one named ``'7'``."""
    with pytest.raises(MixdiagError):
        ActuatorVector.from_mapping(values)


def test_vector_apply_refuses_a_non_bool_value():
    with pytest.raises(MixdiagError):
        ActuatorVector.from_mapping({"V201": False}).apply({"V201": 1})


# ---------------------------------------------------------------------------
# labels


def test_label_round_trip_examples():
    assert build_label({"V202": True, "V201": False}) == "V201↓,V202↑"
    assert parse_label("V201↓,V202↑") == {"V201": False, "V202": True}


def test_label_rejects_malformed_parts():
    for bad in ("", "V201", "V201↑,V201↓", "V201^", "↑", ",V201↑"):
        with pytest.raises(MixdiagError):
            parse_label(bad)


@given(
    changes=st.dictionaries(
        st.text(alphabet="ABCVXYZ0123456789", min_size=1, max_size=5),
        st.booleans(),
        min_size=1,
        max_size=6,
    )
)
def test_label_round_trip_property(changes):
    assert parse_label(build_label(changes)) == changes


# ---------------------------------------------------------------------------
# reconstruction property: a random walk through vectors survives the
# CSV -> log -> trace path


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_trace_reconstruction_property(data):
    ids = ["A1", "B2", "C3"]
    n = data.draw(st.integers(min_value=1, max_value=8))
    vector = {aid: data.draw(st.booleans(), label=f"init {aid}") for aid in ids}

    rows = [(0.0, aid, vector[aid]) for aid in ids]
    expected = []
    t_ms = 0
    for i in range(n):
        t_ms += data.draw(st.integers(min_value=1, max_value=5000), label=f"gap {i}")
        flip = data.draw(
            st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True),
            label=f"flip {i}",
        )
        for aid in flip:
            vector[aid] = not vector[aid]
            rows.append((t_ms / 1000.0, aid, vector[aid]))
        expected.append((t_ms / 1000.0, dict(vector)))

    doc = HEADER + "".join(
        f"{t},actuator,{aid},{int(v)}\n" for t, aid, v in rows
    )
    trace = to_trace(parse_log(doc), ids)
    assert len(trace.steps) == n
    previous_t = 0.0
    for step, (t_s, vec) in zip(trace.steps, expected):
        assert step.t_s == t_s
        assert step.resulting_vector.as_dict() == vec
        assert step.dwell_s == pytest.approx(t_s - previous_t, abs=1e-9)
        previous_t = t_s
    assert sum(s.dwell_s for s in trace.steps) == pytest.approx(
        trace.steps[-1].t_s, abs=1e-6
    )
