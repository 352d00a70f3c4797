"""Every command's envelope bytes are the pinned ones.

`tests/envelopes.json` holds, for each vector of `command_vectors`, the
exit code and the sha256 of stdout and of each `--out` or `--dot` file, as
`tools/pin_envelopes.py` wrote them.  A change that alters any envelope,
on purpose or not, fails here until the file is re-pinned.
"""

import hashlib
import json
import pathlib

from command_vectors import ENVELOPE_VECTORS, envelope

PINS = pathlib.Path(__file__).resolve().parent / "envelopes.json"


def test_every_envelope_is_pinned(tmp_path, monkeypatch):
    pinned = json.loads(PINS.read_text())
    assert [p["argv"] for p in pinned] == ENVELOPE_VECTORS
    monkeypatch.chdir(tmp_path)
    changed = [
        " ".join(pin["argv"])
        for pin in pinned
        if envelope(pin["argv"]) != pin
    ]
    assert not changed, f"envelopes differ from the pins: {changed}"
    # the matrix holds every exit code, and a refusal prints nothing
    assert {pin["exit"] for pin in pinned} == {0, 1, 2, 3}
    empty = hashlib.sha256(b"").hexdigest()
    assert all(pin["stdout"] == empty for pin in pinned if pin["exit"] == 2)
