"""The scheme host's surface: schemes read nothing one engine lacks.

Every attribute a module under ``src/repro/schemes`` reads off its host
(``sim.<name>`` or ``self.sim.<name>``) must be a member of
:class:`~repro.schemes.host.SchemeHost`: a class attribute, a method, or
an attribute its constructor sets.  Both engines are hosts, so a scheme
that reaches for anything else would run on one engine only.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import repro.schemes
from repro.engine.config import SimulationConfig
from repro.engine.multikey import MultiKeyScaleSimulation
from repro.engine.simulation import Simulation
from repro.schemes.host import SchemeHost

SCHEMES = Path(repro.schemes.__file__).parent


def _is_host(node: ast.expr) -> bool:
    """``sim`` or ``self.sim``."""
    if isinstance(node, ast.Name):
        return node.id == "sim"
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "sim"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def host_reads() -> dict[str, set[str]]:
    """Attribute name -> the scheme modules that read it off the host."""
    reads: dict[str, set[str]] = {}
    for path in sorted(SCHEMES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and _is_host(node.value):
                reads.setdefault(node.attr, set()).add(path.name)
    return reads


def host_members() -> set[str]:
    """Class attributes and methods of ``SchemeHost``, plus every
    ``self.<name>`` its constructor assigns."""
    members = {name for name in vars(SchemeHost) if not name.startswith("__")}
    tree = ast.parse(inspect.getsource(SchemeHost.__init__).lstrip())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            members.add(node.attr)
    return members


def test_schemes_read_only_host_members():
    reads = host_reads()
    strays = {
        name: sorted(modules)
        for name, modules in reads.items()
        if name not in host_members()
    }
    assert not strays, f"read off the host, not SchemeHost members: {strays}"


def test_the_fence_sees_the_reads():
    # A scan that finds nothing proves nothing: the query path's own
    # reads must show up.
    reads = host_reads()
    for name in ("env", "lookup", "record_latency", "reliable", "overload"):
        assert name in reads


def test_both_engines_have_every_member():
    config = SimulationConfig(scheme="dup", topology="chord", num_nodes=32)
    hosts = [
        Simulation(config),
        *MultiKeyScaleSimulation(config, 2).slices.values(),
    ]
    for host in hosts:
        assert isinstance(host, SchemeHost)
        missing = [name for name in host_members() if not hasattr(host, name)]
        assert not missing, f"{type(host).__name__} lacks {missing}"
