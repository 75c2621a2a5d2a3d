"""The bitwise-equivalence tool on a slice of its grid, in-process.

The cross-tree use (``python tests/equivalence.py --against <tree>``) is a
step of every refactor; these tests keep the tool itself working.
"""

import dataclasses
import itertools

import numpy as np

import equivalence
from picardrom import driver

SLICE = ("thermal/propagation/1/val/1.0", "rd/asymptotic/both/noval/0.7",
         "rd+exact/upper_bound/2/val/0.7", "scalar/residual/1/noval/1.0",
         "scalar+exact/asymptotic/1/val/1.0")


def test_the_slice_names_configurations_of_the_grid():
    grid = equivalence.configurations()
    assert len(grid) == len(set(grid)) == 256
    assert set(SLICE) <= set(grid)


def test_a_tree_agrees_with_itself():
    first = equivalence.records(SLICE)
    assert "error" in first["scalar+exact/asymptotic/1/val/1.0"]
    assert all("rows" in first[name] for name in SLICE[:-1])
    assert equivalence.compare(first, equivalence.records(SLICE)) == []


def flip_first_verdict(monkeypatch):
    """Invert the criterion's first verdict on a reduced step."""
    plain, flipped = driver.step, []

    def flipping(*args, accept=None, **kwargs):
        def once(delta, residuals):
            verdict = accept(delta, residuals)
            if flipped:
                return verdict
            flipped.append(verdict)
            return not verdict
        return plain(*args, accept=None if accept is None else once, **kwargs)

    monkeypatch.setattr(driver, "step", flipping)
    return flipped


def test_one_flipped_verdict_is_reported_at_its_configuration_and_row(monkeypatch):
    name = SLICE[0]
    before = equivalence.records(SLICE)
    flipped = flip_first_verdict(monkeypatch)
    after = dict(before, **{name: equivalence.record(name)})
    # the first reduced step, its verdict flipped between rom and reject
    k = next(k for k, row in enumerate(before[name]["rows"])
             if row["event"] in ("rom", "reject"))
    event = before[name]["rows"][k]["event"]
    assert flipped == [event == "rom"]
    [(where_name, where, left, right)] = equivalence.compare(before, after)
    assert (where_name, left, right) == (name, before[name]["rows"][k], after[name]["rows"][k])
    fields = where.removeprefix(f"row {k} (").removesuffix(")").split(", ")
    assert "event" in fields and set(fields) <= set(before[name]["rows"][k])
    assert after[name]["rows"][k]["event"] == {"rom": "reject", "reject": "rom"}[event]


def test_a_report_field_only_one_tree_has_is_reported_in_either_direction():
    name = SLICE[3]
    plain = equivalence.record(name)
    extra = dict(plain, report=dict(plain["report"], guarantee="rigorous"))
    assert equivalence.compare({name: extra}, {name: plain}) == [
        (name, "report guarantee", "rigorous", equivalence.MISSING)]
    assert equivalence.compare({name: plain}, {name: extra}) == [
        (name, "report guarantee", equivalence.MISSING, "rigorous")]


def test_records_do_not_follow_the_library_digest(monkeypatch):
    before = equivalence.records(SLICE)
    monkeypatch.setattr(driver, "_hash_state", lambda x: "0")
    assert equivalence.records(SLICE) == before


def test_a_one_ulp_change_to_one_iterate_is_reported_at_its_row(monkeypatch):
    """With the library digest constant, only the tool's own digest can see
    an iterate move by one ulp."""
    name, k = "rd/residual/none/noval/1.0", 3   # a plain run: one step per row
    before = equivalence.record(name)
    monkeypatch.setattr(driver, "_hash_state", lambda x: "0")
    plain, calls = driver.step, itertools.count()

    def nudging(*args, **kwargs):
        result = plain(*args, **kwargs)
        if next(calls) != k:
            return result
        x_next = result.x_next.copy()
        x_next[0] = np.nextafter(x_next[0], np.inf)
        return dataclasses.replace(result, x_next=x_next)

    monkeypatch.setattr(driver, "step", nudging)
    after = equivalence.record(name)
    [(where_name, where, left, right)] = equivalence.compare({name: before}, {name: after})
    assert (where_name, left, right) == (name, before["rows"][k], after["rows"][k])
    assert where.startswith(f"row {k} (") and "x_hash" in where
    assert left["x_hash"] != right["x_hash"]
