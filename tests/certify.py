"""Collect the CatResults behind a run and verify each one, checking each
distinct fence once."""

from unittest import mock

import lscat.category


def count_calls(monkeypatch, counts, key, module, name, results=None):
    """Replace ``module.name`` by a wrapper that adds one to
    ``counts[key]`` per call and appends each result to ``results``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        result = original(*args, **kwargs)
        if results is not None:
            results.append(result)
        return result

    monkeypatch.setattr(module, name, counted)


def verify_results(results):
    """``verify`` every CatResult, checking each distinct fence object
    once (a catalogue's fence serves every cover that uses its member,
    under the same end test); returns the number of fences checked."""
    checked = set()
    check = lscat.category._check_fence

    def check_once(query, entry, end_ok, stage_ok):
        if entry.certificate not in checked:
            check(query, entry, end_ok, stage_ok)
            checked.add(entry.certificate)

    with mock.patch.object(lscat.category, "_check_fence", check_once):
        for result in results:
            result.verify()
    return len(checked)
