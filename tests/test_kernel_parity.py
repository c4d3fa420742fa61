"""Pure and compiled kernels must agree bit for bit, node counts included.

The compiled kernel is built from ``_speed.c`` with gcc into a temporary
copy of the package, so parity is checked wherever gcc is present, whether
or not the extension was built in place.
"""

import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from cordant import _kernel

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOAD = r"""
import json
import cordant as c
from cordant import _kernel
from cordant.groups import op_tables
from cordant.search import _generic_structures

spec = c.GroupSpec
out = []

def record(name, o):
    cert = None
    if o.certificate is not None:
        cert = getattr(o.certificate, "labels", None) or getattr(
            o.certificate, "seq", None)
    out.append([name, o.status, cert, o.nodes_explored])

def record_error(name, call):
    try:
        call()
    except c.CordantError as exc:
        out.append([name, type(exc).__name__, str(exc)])
    else:
        out.append([name, "no error"])

record("ea-p4-z4", c.search_ea_cordial(c.path_graph(4), spec((4,))))
record("ea-p6-z6", c.search_ea_cordial(c.path_graph(6), spec((6,))))
record("ea-c3-z3-prefix",
       c.search_ea_cordial(c.cycle_graph(3), spec((3,)), prefix=((1,),)))
record("ac-c12-z4", c.search_a_cordial(c.cycle_graph(12), spec((4,))))
record("am-p7-z7", c.search_a_antimagic(c.path_graph(7), spec((7,))))
record("as-p8-e3", c.search_a_star_antimagic(c.path_graph(8), spec((2, 2, 2))))
record("rs-e2", c.search_rstar_sequence(spec((2, 2))))
record("rs-e3", c.search_rstar_sequence(spec((2, 2, 2))))
record("ea-p6-z6-w3", c.search_ea_cordial(c.path_graph(6), spec((6,)), workers=3))
record("ea-p6-z6-b100", c.search_ea_cordial(c.path_graph(6), spec((6,)), budget=100))

# searches that skip symmetric root branches, also split over two workers
tree8 = c.tree_graph(8, ((0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 6), (6, 7)))
for w in (1, 2):
    record(f"ac-c10-z10-w{w}",
           c.search_a_cordial(c.cycle_graph(10), spec((10,)), workers=w))
    record(f"ea-p10-z10-w{w}",
           c.search_ea_cordial(c.path_graph(10), spec((10,)), workers=w))
    record(f"as-tree8-z8-w{w}",
           c.search_a_star_antimagic(tree8, spec((8,)), workers=w))
    record(f"rs-z2xz5-w{w}", c.search_rstar_sequence(spec((2, 5)), workers=w))

# extreme inputs
record("ea-p6-z6-b0", c.search_ea_cordial(c.path_graph(6), spec((6,)), budget=0))
record("rs-z7-b0", c.search_rstar_sequence(spec((7,)), budget=0))
record("ea-c3-z3-rejected-prefix",
       c.search_ea_cordial(c.cycle_graph(3), spec((3,)), prefix=((1,), (1,))))
spider = c.tree_graph(8, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (6, 7)))
record("am-spider8-z8", c.search_a_antimagic(spider, spec((8,))))
record("as-spider8-e3", c.search_a_star_antimagic(spider, spec((2, 2, 2))))
record("ac-spider8-z3", c.search_a_cordial(spider, spec((3,))))
record("ea-spider8-z4-b50", c.search_ea_cordial(spider, spec((4,)), budget=50))
record("ea-deepest-cycle-z3",
       c.search_ea_cordial(c.cycle_graph(c.MAX_DEPTH), spec((3,))))
record("ea-deepest-path-z3",
       c.search_ea_cordial(c.path_graph(c.MAX_DEPTH + 1), spec((3,)),
                           budget=30000))
record_error("ea-too-deep-z3",
             lambda: c.search_ea_cordial(c.path_graph(c.MAX_DEPTH + 2),
                                         spec((3,))))
record_error("rs-too-deep",
             lambda: c.search_rstar_sequence(spec((c.MAX_DEPTH + 1,))))

kern = _kernel.active_backend()


# s edge slots along a path (each end vertex sums one slot alone), s
# vertex slots along a path, and s vertex slots around a cycle
def path_edges(s):
    return _generic_structures(c.path_graph(s + 1), s, True)


def path_vertices(s):
    return _generic_structures(c.path_graph(s), s, False)


def cycle(s):
    return _generic_structures(c.cycle_graph(s), s, False)


# slot caps of 2**20 need 21-bit counters, so the packed key exceeds 63 bits
# and the memo is off: 47235 nodes where the memo would take 4449
z3_add, z3_neg = op_tables(spec((3,)))
out.append(["path-no-memo",
            kern.solve_generic(3, z3_add, z3_neg, 12, [1 << 20] * 3, [0] * 3,
                               [3] * 3, [0] * 3, *path_vertices(12), [], -1)])
# searches always pin the first slot; here the first slot of a cycle is free
z4_add, z4_neg = op_tables(spec((4,)))
out.append(["cycle-open-first-slot",
            kern.solve_generic(4, z4_add, z4_neg, 12, [3] * 4, [3] * 4,
                               [3] * 4, [3] * 4, *cycle(12), [], -1)])

# prefixes the kernels reject before searching
add_t, neg_t = op_tables(spec((5,)))
out.append(["rstar-rejected-prefix", kern.solve_rstar(5, add_t, neg_t, [2, 2], -1),
            kern.solve_rstar(5, add_t, neg_t, [0], -1)])
out.append(["cycle-rejected-prefix",
            kern.solve_generic(5, add_t, neg_t, 3, [1] * 5, [0] * 5, [1] * 5,
                               [0] * 5, *cycle(3), [1, 1], -1)])
out.append(["generic-rejected-prefix",
            kern.solve_generic(5, add_t, neg_t, 2, [1] * 5, [0] * 5,
                               [0, 1, 1, 1, 1], [0] * 5, 1, [0, 1, 2], [0, 0],
                               [0, 0, 1], [0], [3, 2], -1)])

# memo-on paths and cycles with unequal floors
z5_add, z5_neg = op_tables(spec((5,)))
out.append(["memo-unequal-floors",
            kern.solve_generic(4, z4_add, z4_neg, 12, [3, 5, 4, 4],
                               [0, 1, 1, 4], [5, 3, 3, 3], [5, 0, 3, 1],
                               *path_edges(12), [], -1),
            kern.solve_generic(4, z4_add, z4_neg, 10, [2, 3, 2, 2],
                               [2, 3, 2, 0], [4, 2, 2, 5], [4, 0, 0, 3],
                               *cycle(10), [], -1),
            kern.solve_generic(5, z5_add, z5_neg, 12, [2, 4, 3, 4, 4],
                               [0, 1, 2, 4, 4], [2, 4, 2, 2, 5],
                               [1, 2, 1, 1, 4], *cycle(12), [], -1)])
# 32 labels need more than 63 key bits: a memo-off search
record("ac-c32-z4xz8-b20000",
       c.search_a_cordial(c.cycle_graph(32), spec((4, 8)), budget=20000))

# budget stops on every slot: budgets in steps up to the node count
z6_add, z6_neg = op_tables(spec((6,)))
spider6 = c.tree_graph(6, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5)))
edge_csr = _generic_structures(spider6, 5, True)
vertex_csr = _generic_structures(spider6, 6, False)
sweeps = [
    ("path", 1176, 7, lambda b: kern.solve_generic(
        6, z6_add, z6_neg, 5, [1] * 6, [0] * 6, [1] * 6, [1] * 6,
        *path_edges(5), [], b)),
    ("cycle", 3750, 7, lambda b: kern.solve_generic(
        6, z6_add, z6_neg, 6, [1] * 6, [1] * 6, [1] * 6, [1] * 6, *cycle(6),
        [], b)),
    ("generic-edges", 1566, 7, lambda b: kern.solve_generic(
        6, z6_add, z6_neg, 5, [1] * 6, [0] * 6, [1] * 6, [1] * 6,
        *edge_csr, [], b)),
    ("generic-vertices", 268, 1, lambda b: kern.solve_generic(
        5, z5_add, z5_neg, 6, [2] * 5, [1] * 5, [1] * 5, [1] * 5,
        *vertex_csr, [], b)),
]
for name, total, step, solve in sweeps:
    out.append(["budget-sweep-" + name,
                [solve(b) for b in [*range(0, total, step), total]]])

# prefixes that leave one slot free
out.append(["path-cycle-one-free-slot",
            kern.solve_generic(4, z4_add, z4_neg, 4, [1] * 4, [0] * 4,
                               [2] * 4, [1] * 4, *path_edges(4), [0, 1, 2],
                               -1),
            kern.solve_generic(4, z4_add, z4_neg, 4, [1] * 4, [0] * 4,
                               [2] * 4, [1] * 4, *path_edges(4), [1, 3, 0],
                               -1),
            kern.solve_generic(6, z6_add, z6_neg, 6, [1] * 6, [1] * 6,
                               [2] * 6, [0] * 6, *cycle(6), [0, 1, 3, 2, 4],
                               -1)])
out.append(["generic-one-free-slot",
            kern.solve_generic(6, z6_add, z6_neg, 5, [1] * 6, [0] * 6,
                               [1] * 6, [1] * 6,
                               *edge_csr,
                               [1, 2, 3, 4], -1),
            kern.solve_generic(5, z5_add, z5_neg, 6, [2] * 5, [1] * 5,
                               [1] * 5, [1] * 5,
                               *vertex_csr,
                               [0, 1, 2, 3, 4], -1)])

# vertex labelings of trees (slots feed one item per incident edge) and A*
tree9 = c.tree_graph(9, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6),
                         (3, 7), (0, 8)))
record("ac-tree8-z4", c.search_a_cordial(tree8, spec((4,))))
record("ac-tree9-z3-b10", c.search_a_cordial(tree9, spec((3,)), budget=10))
record("as-tree9-z3xz3", c.search_a_star_antimagic(tree9, spec((3, 3))))
record("am-tree9-z3xz3", c.search_a_antimagic(tree9, spec((3, 3))))

# memo-on trees: the three order-10 Z2xZ5 rows the memo settles, and a
# vertex labeling (359 nodes, 2189 with the memo off)
trees10 = list(c.enumerate_trees(10))
for i in (48, 55, 60):
    record(f"am-tree10-{i}-z2xz5",
           c.search_a_antimagic(trees10[i], spec((2, 5))))
record("ac-tree10-29-z5", c.search_a_cordial(trees10[29], spec((5,))))

# budgets beyond any search run unbounded on both backends
huge = 10 ** 30
record("ea-p6-z6-huge", c.search_ea_cordial(c.path_graph(6), spec((6,)),
                                            budget=huge))
record("am-spider8-z8-huge", c.search_a_antimagic(spider, spec((8,)),
                                                  budget=huge))
record("rs-e3-huge", c.search_rstar_sequence(spec((2, 2, 2)), budget=huge))
s = c.compute_sigma_max(spec((6,)), budget=huge)
out.append(["sigma-z6-huge", s.status, s.value, list(s.witness.order),
            s.nodes_explored])

for factors in ((2, 3), (2,), (4,)):
    s = c.compute_sigma_max(spec(factors))
    out.append(["sigma", factors, s.status, s.value, list(s.witness.order),
                s.witness.distinct_sum_count, s.nodes_explored])
s = c.compute_sigma_max(spec((7,)), budget=0)
out.append(["sigma-z7-b0", s.status, s.value, s.witness, s.nodes_explored])
out.append(["backend", _kernel.backend_name()])
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def built_package(tmp_path_factory):
    """A copy of the package with the compiled kernel built into it."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found; the compiled kernel cannot be built")
    root = tmp_path_factory.mktemp("kernel")
    kernel_dir = root / "cordant" / "_kernel"
    shutil.copytree(SRC / "cordant", root / "cordant",
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    target = kernel_dir / ("_speed" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [gcc, "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         "-I" + sysconfig.get_paths()["include"],
         str(kernel_dir / "_speed.c"), "-o", str(target)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return root


def _run(root: Path, backend: str, code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a child process on the named backend."""
    select = f"from cordant import _kernel\n_kernel._active = _kernel.{backend}\n"
    env = dict(os.environ, PYTHONPATH=str(root))
    return subprocess.run([sys.executable, "-c", select + code],
                          capture_output=True, text=True, env=env, cwd=root)


def test_backends_produce_identical_results(built_package):
    results = {}
    for backend in ("pure", "compiled"):
        proc = _run(built_package, backend, WORKLOAD)
        assert proc.returncode == 0, proc.stderr
        results[backend] = json.loads(proc.stdout)
    pure, fast = results["pure"], results["compiled"]
    assert pure[-1] == ["backend", "pure"]
    assert fast[-1] == ["backend", "compiled"]
    assert pure[:-1] == fast[:-1]


def test_compiled_kernel_rejects_malformed_instances(built_package):
    code = r"""
from cordant._kernel import _speed
add_t = [0, 1, 1, 0]
bounds = ([1, 1], [0, 0], [2, 2], [0, 0])
# a vertex-labeled path of two slots, and incidences the memo cannot key
pair = (1, [0, 1, 2], [0, 0], [0, 0, 1], [0])
completed_twice = (1, [0, 1, 2], [0, 0], [0, 1, 2], [0, 0])
fed_after_completion = (1, [0, 1, 2], [0, 0], [0, 1, 1], [0])
fed_twice = (1, [0, 2, 2], [0, 0], [0, 0, 1], [0])
completed_by_another_slot = (1, [0, 1, 1], [0], [0, 0, 1], [0])
bad = [
    lambda: _speed.solve_generic(2, add_t[:3], [0, 1], 2, *bounds, *pair,
                                 [], -1),
    lambda: _speed.solve_generic(2, add_t, [0, 1], 2, *bounds, *pair, [2],
                                 -1),
    lambda: _speed.solve_generic(2, add_t, [0, 1], 2, *bounds,
                                 *completed_twice, [], -1),
    lambda: _speed.solve_generic(2, add_t, [0, 1], 2, *bounds,
                                 *fed_after_completion, [], -1),
    lambda: _speed.solve_generic(2, add_t, [0, 1], 2, *bounds, *fed_twice,
                                 [], -1),
    lambda: _speed.solve_generic(2, add_t, [0, 1], 2, *bounds,
                                 *completed_by_another_slot, [], -1),
    lambda: _speed.solve_generic(2, add_t, [0, 1], 1, [1, 1], [0, 0],
                                 [1, 1], [0, 0], 1, [0, 5], [0], [0, 1],
                                 [0], [], -1),
    lambda: _speed.solve_sigma(3, [0] * 8 + [3], -1),
]
for call in bad:
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("accepted a malformed instance")
# the well-formed pair they are built from runs: labels 0, 1 sum to 1
assert _speed.solve_generic(2, add_t, [0, 1], 2, *bounds, *pair, [],
                            -1) == (0, [0, 1], 3)
"""
    proc = _run(built_package, "compiled", code)
    assert proc.returncode == 0, proc.stderr


def test_active_backend_exposes_all_kernels():
    kern = _kernel.active_backend()
    for name in ("solve_chain", "solve_generic", "solve_rstar", "solve_sigma"):
        assert callable(getattr(kern, name))
