"""Dict oracle for concurrent closed-loop runs.

Inside one closed-loop run many operations are in flight at once, so a
read of a key that a concurrent operation writes may legitimately see
either the old or the new value.  The oracle therefore checks each result against
the states a linearizable store could have shown, using the virtual
admission and completion times every operation carries:

* a write ``w`` is visible to an operation ``r`` if ``w`` was admitted
  no later than ``r`` completed, and no other write admitted after
  ``w`` completed also completed before ``r`` was admitted;
* the state at the start of the run is visible unless a write
  completed before ``r`` was admitted.

After a run the oracle knows a key's state when one write is not
overtaken by any other; when concurrent writes leave several
candidates the caller reads the key back (outside the timed region)
and :meth:`Oracle.resolve` checks the value is one of them.

Writes carry the state they set: the payload for ``put``/``update``
(updates only target keys that stay present), ``None`` for ``delete``.
"""

from collections import namedtuple

#: One executed operation: verb, key, payload written (or None), the
#: program's result, virtual admission / completion ns, and the error.
Record = namedtuple("Record", "verb key payload result admit done error")

_WRITES = frozenset(("put", "update", "delete"))
_BEFORE = -1  # admission/completion stamp of the run's initial state


def _state_of(record):
    return None if record.verb == "delete" else record.payload


class Oracle:
    """Expected key -> payload map plus a mismatch ledger."""

    def __init__(self, items, check_write_results=True):
        self.state = dict(items)
        # LSM puts report no was-new flag, so their results are not checked
        self.check_write_results = check_write_results
        self.mismatches = []

    def check_results(self, records):
        """Check every result of one run; returns keys left ambiguous.

        The returned dict maps each ambiguous key to the candidate
        states; pass the value read back to :meth:`resolve`.
        """
        by_key = {}
        for record in records:
            by_key.setdefault(record.key, []).append(record)
        ambiguous = {}
        for key, group in by_key.items():
            initial = self.state.get(key)
            writes = [r for r in group if r.verb in _WRITES and r.error is None]
            for record in group:
                if record.error is not None:
                    continue
                visible = _visible(initial, writes, record)
                if not self._result_ok(record, visible):
                    self.mismatches.append(
                        "%s(%d) returned %r; possible states %r"
                        % (record.verb, key, record.result, sorted(
                            visible, key=repr))
                    )
            if any(r.verb in _WRITES and r.error is not None for r in group):
                # a failed write may or may not have landed
                candidates = {initial} | {
                    _state_of(r) for r in group if r.verb in _WRITES
                }
            elif writes:
                candidates = _final_states(writes)
            else:
                continue
            if len(candidates) == 1:
                self._set(key, next(iter(candidates)))
            else:
                ambiguous[key] = candidates
        return ambiguous

    def resolve(self, key, candidates, actual):
        """Adopt a read-back value for an ambiguous key, checking it."""
        if actual not in candidates:
            self.mismatches.append(
                "key %d reads back %r; possible states %r"
                % (key, actual, sorted(candidates, key=repr))
            )
        self._set(key, actual)

    def check_scan(self, rows):
        """A full-range scan must return exactly the expected items."""
        expected = sorted(self.state.items())
        rows = [(key, bytes(value)) for key, value in rows]
        if rows != expected:
            missing = len(set(expected) - set(rows))
            extra = len(set(rows) - set(expected))
            self.mismatches.append(
                "full scan: %d rows, expected %d (%d missing, %d unexpected)"
                % (len(rows), len(expected), missing, extra)
            )
            return False
        return True

    def _set(self, key, value):
        if value is None:
            self.state.pop(key, None)
        else:
            self.state[key] = value

    def _result_ok(self, record, visible):
        if record.verb == "get":
            return record.result in visible
        if not self.check_write_results:
            return True
        present = {state is not None for state in visible}
        if record.verb == "put":
            return record.result in {not flag for flag in present}
        return record.result in present  # update / delete: was present


def _visible(initial, writes, record):
    """States a linearizable store could show ``record``."""
    candidates = [(_BEFORE, _BEFORE, initial)] + [
        (w.admit, w.done, _state_of(w))
        for w in writes
        if w is not record and w.admit <= record.done
    ]
    return {
        state
        for admit, done, state in candidates
        if not any(
            done < other_admit and other_done < record.admit
            for other_admit, other_done, _ in candidates
        )
    }


def _final_states(writes):
    """States the key may hold after a run that wrote it."""
    return {
        _state_of(w)
        for w in writes
        if not any(w.done < other.admit for other in writes)
    }
