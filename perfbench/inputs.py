"""Benchmark inputs: the OSI transfer spec scaled to K connections x L units.

The generator keeps the shipped ``examples/specs/osi_transfer.estelle``
channels and bodies verbatim and replaces only its instance section (the
``modvar``/``connect`` lines after the last body) with K copies of one
connection, each sending and expecting L data units.  Expected counts are
derived here from the spec text, not from a run of the program.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
OSI_TRANSFER = ROOT / "examples" / "specs" / "osi_transfer.estelle"
MCAM_SESSIONS = ROOT / "examples" / "specs" / "mcam_sessions.estelle"

#: The six module instances of one connection, in declaration order:
#: (instance prefix, body, placement).
CONNECTION_MODULES = (
    ("s_app", "SendingAppBody", "ksr1"),
    ("s_pres", "SendingPresBody", "ksr1"),
    ("s_sess", "SendingSessBody", "ksr1"),
    ("r_sess", "ReceivingSessBody", "client-ws-1"),
    ("r_pres", "ReceivingPresBody", "client-ws-1"),
    ("r_app", "ReceivingAppBody", "client-ws-1"),
)
CONNECTION_LINKS = (
    ("s_app", "pres", "s_pres", "up"),
    ("s_pres", "down", "s_sess", "up"),
    ("s_sess", "wire", "r_sess", "wire"),
    ("r_sess", "up", "r_pres", "down"),
    ("r_pres", "up", "r_app", "pres"),
)

#: Transitions that fire once per data unit on every connection: the
#: sender's request, the three hops down and across, the three hops up, and
#: the two confirmation hops back (the ack chain of ``deliver_and_ack``).
PER_UNIT = (
    "p_data_request",
    "data_down",
    "ship",
    "deliver_and_ack",
    "lift",
    "consume",
    "acknowledge",
    "confirm_up",
    "p_data_confirm",
)
#: Transitions that fire once per connection: association set-up and
#: release through every layer of both stacks.
PER_CONNECTION = (
    "p_connect_request",
    "p_connect_confirm",
    "p_release_request",
    "p_release_confirm",
    "connect_down",
    "connect_up",
    "release_down",
    "release_up",
    "connect_wire",
    "connect_confirm",
    "disconnect_wire",
    "disconnect_confirm",
    "accept_connection",
    "disconnect",
    "connect_indication",
    "release_indication",
    "association_up",
    "association_down",
)


def scaled_transfer_text(connections: int, units: int) -> str:
    """The OSI transfer spec with ``connections`` x ``units`` data units."""
    if connections < 1 or units < 1:
        raise ValueError(f"need K >= 1 and L >= 1, got K={connections} L={units}")
    text = OSI_TRANSFER.read_text()
    cut = text.find("\nmodvar ")
    if cut < 0:
        raise ValueError(f"{OSI_TRANSFER}: no modvar section to replace")
    # Drop the placement comment that precedes the shipped instances.
    head = re.sub(r"\{[^{}]*\}\s*$", "", text[:cut].rstrip()).rstrip()
    lines = [head, ""]
    for c in range(1, connections + 1):
        for prefix, body, machine in CONNECTION_MODULES:
            init = ""
            if prefix == "s_app":
                init = f" with to_send := {units}"
            elif prefix == "r_app":
                init = f" with expected := {units}"
            lines.append(f'modvar {prefix}_c{c} : {body} at "{machine}"{init} ;')
    lines.append("")
    for c in range(1, connections + 1):
        for a, a_ip, b, b_ip in CONNECTION_LINKS:
            lines.append(f"connect {a}_c{c}.{a_ip} to {b}_c{c}.{b_ip} ;")
    lines += ["", "end.", ""]
    return "\n".join(lines)


def expected_transfer_counts(connections: int, units: int) -> Dict[str, int]:
    """Firings per transition name over the whole run (all connections)."""
    counts = {name: connections * units for name in PER_UNIT}
    counts.update({name: connections for name in PER_CONNECTION})
    return counts


def expected_transfer_firings(connections: int, units: int) -> int:
    """K * (9L + 18): nine hops per data unit, 18 set-up/release firings."""
    return connections * (len(PER_UNIT) * units + len(PER_CONNECTION))
