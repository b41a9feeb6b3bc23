"""Tests for the static determinism & layering analyzer (repro.devtools)."""

import importlib
import json
import time
from pathlib import Path

import pytest

from repro.devtools.baseline import apply_baseline, load_baseline, write_baseline
from repro.devtools.engine import discover_modules, run_rules
from repro.devtools.lint import all_rules, default_root, main, run_lint
from repro.devtools.parity import (
    ENGINE_EQUIVALENCE_COVERED,
    ENGINE_EQUIVALENCE_TEST_FILE,
    PARITY_COVERED,
    PARITY_EXEMPT,
    PARITY_TEST_FILE,
)
from repro.devtools.rules_determinism import (
    GlobalRNGRule,
    ParityManifestRule,
    SetIterationRule,
    UnorderedAccumulationRule,
    WallClockRule,
    determinism_rules,
)
from repro.devtools.rules_arrays import (
    DowncastWithoutGuardRule,
    MemmapMutationRule,
    NarrowArithmeticRule,
    UnsizedAccumulatorRule,
    array_rules,
)
from repro.devtools.rules_layering import LayeringRule, render_dot
from repro.devtools.rules_parallel import (
    BlockingAsyncRule,
    PoolCallableRule,
    WorkerGlobalsRule,
    WorkerManifestRule,
    parallel_rules,
)
from repro.devtools.workers import PICKLE_WHITELIST, WORKER_EXEMPT, WORKER_MANIFEST

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_tree(tmp_path, files, rules=None, **kwargs):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint the tree."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    modules = discover_modules(tmp_path)
    return run_rules(modules, rules if rules is not None else all_rules(), **kwargs)


def codes(result):
    return [d.rule for d in result.diagnostics if d.status == "error"]


class TestSetIterationRule:
    def test_for_over_set_literal_flagged(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"metrics/bad.py": "for x in {3, 1, 2}:\n    print(x)\n"},
            [SetIterationRule()],
        )
        assert codes(result) == ["RPL001"]

    def test_for_over_set_name_flagged(self, tmp_path):
        src = "s = set([3, 1, 2])\nfor x in s:\n    print(x)\n"
        result = lint_tree(tmp_path, {"kernels/bad.py": src}, [SetIterationRule()])
        assert codes(result) == ["RPL001"]

    def test_neighbors_call_flagged(self, tmp_path):
        src = "def f(g, u):\n    return [v for v in g.neighbors(u)]\n"
        result = lint_tree(tmp_path, {"graph/bad.py": src}, [SetIterationRule()])
        assert codes(result) == ["RPL001"]

    def test_adjacency_subscript_flagged(self, tmp_path):
        src = "def f(g, u):\n    return list(g.adjacency[u])\n"
        result = lint_tree(tmp_path, {"community/bad.py": src}, [SetIterationRule()])
        assert codes(result) == ["RPL001"]

    def test_sorted_set_not_flagged(self, tmp_path):
        src = "s = {3, 1, 2}\nfor x in sorted(s):\n    print(x)\n"
        result = lint_tree(tmp_path, {"metrics/good.py": src}, [SetIterationRule()])
        assert codes(result) == []

    def test_dict_iteration_not_flagged(self, tmp_path):
        # Dict iteration is insertion-ordered; the CSR parity contract
        # depends on it, so flagging it would be a false positive.
        src = "d = {1: 2}\nfor k, v in d.items():\n    print(k, v)\n"
        result = lint_tree(tmp_path, {"metrics/good.py": src}, [SetIterationRule()])
        assert codes(result) == []

    def test_outside_determinism_packages_not_flagged(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"analysis/ok.py": "for x in {3, 1, 2}:\n    print(x)\n"},
            [SetIterationRule()],
        )
        assert codes(result) == []


class TestGlobalRNGRule:
    def test_stdlib_random_import_flagged(self, tmp_path):
        src = "from random import choice\nprint(choice([1]))\n"
        result = lint_tree(tmp_path, {"gen/bad.py": src}, [GlobalRNGRule()])
        assert "RPL002" in codes(result)

    def test_stdlib_random_attribute_flagged(self, tmp_path):
        src = "import random\nx = random.random()\n"
        result = lint_tree(tmp_path, {"analysis/bad.py": src}, [GlobalRNGRule()])
        assert codes(result) == ["RPL002"]

    def test_legacy_numpy_random_flagged(self, tmp_path):
        src = "import numpy as np\nnp.random.seed(0)\nx = np.random.rand(3)\n"
        result = lint_tree(tmp_path, {"metrics/bad.py": src}, [GlobalRNGRule()])
        assert codes(result) == ["RPL002", "RPL002"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        result = lint_tree(tmp_path, {"metrics/bad.py": src}, [GlobalRNGRule()])
        assert codes(result) == ["RPL002"]

    def test_seeded_generator_not_flagged(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng(7)\nx = rng.random()\n"
        result = lint_tree(tmp_path, {"metrics/good.py": src}, [GlobalRNGRule()])
        assert codes(result) == []

    def test_relative_import_of_sibling_random_module_not_flagged(self, tmp_path):
        # ``serve/random.py`` is the package's own module, not the stdlib.
        files = {
            "serve/__init__.py": "",
            "serve/random.py": (
                "from repro.util.rng import make_rng\n"
                "def pick(items, seed):\n"
                "    return items[int(make_rng(seed).integers(len(items)))]\n"
            ),
            "serve/api.py": (
                "from .random import pick\n"
                "from . import random\n"
                "def handle(items):\n"
                "    return pick(items, 0), random.pick(items, 1)\n"
            ),
        }
        result = lint_tree(tmp_path, files, [GlobalRNGRule()])
        assert codes(result) == []

    def test_relative_numpy_random_module_not_flagged(self, tmp_path):
        files = {
            "gen/numpy/__init__.py": "",
            "gen/numpy/random.py": "def rand():\n    return 4\n",
            "gen/draw.py": "from .numpy.random import rand\nx = rand()\n",
        }
        result = lint_tree(tmp_path, files, [GlobalRNGRule()])
        assert codes(result) == []


class TestUnorderedAccumulationRule:
    def test_sum_over_set_flagged(self, tmp_path):
        src = "s = {1.5, 2.5}\ntotal = sum(s)\n"
        result = lint_tree(tmp_path, {"metrics/bad.py": src}, [UnorderedAccumulationRule()])
        assert codes(result) == ["RPL003"]

    def test_sum_over_comprehension_of_set_flagged(self, tmp_path):
        src = "s = {1.5, 2.5}\ntotal = sum(x * 2 for x in s)\n"
        result = lint_tree(tmp_path, {"runtime/bad.py": src}, [UnorderedAccumulationRule()])
        assert codes(result) == ["RPL003"]

    def test_sum_over_sorted_not_flagged(self, tmp_path):
        src = "s = {1.5, 2.5}\ntotal = sum(sorted(s))\n"
        result = lint_tree(tmp_path, {"metrics/good.py": src}, [UnorderedAccumulationRule()])
        assert codes(result) == []


class TestWallClockRule:
    def test_time_call_flagged_in_pure_package(self, tmp_path):
        src = "import time\nt = time.perf_counter()\n"
        result = lint_tree(tmp_path, {"metrics/bad.py": src}, [WallClockRule()])
        assert codes(result) == ["RPL004"]

    def test_from_import_alias_flagged(self, tmp_path):
        src = "from time import perf_counter as pc\nt = pc()\n"
        result = lint_tree(tmp_path, {"kernels/bad.py": src}, [WallClockRule()])
        assert codes(result) == ["RPL004"]

    def test_datetime_now_flagged(self, tmp_path):
        src = "from datetime import datetime\nt = datetime.now()\n"
        result = lint_tree(tmp_path, {"graph/bad.py": src}, [WallClockRule()])
        assert codes(result) == ["RPL004"]

    def test_analysis_package_exempt(self, tmp_path):
        # Presentation-side code may read the clock (e.g. progress logs).
        src = "import time\nt = time.time()\n"
        result = lint_tree(tmp_path, {"analysis/ok.py": src}, [WallClockRule()])
        assert codes(result) == []

    def test_obs_package_exempt(self, tmp_path):
        # repro.obs is the one sanctioned wall-clock site: the recorder's
        # monotonic clock lives there (WALL_CLOCK_EXEMPT) and everything
        # else imports repro.obs.perf_counter instead of the stdlib.
        src = "import time\nperf_counter = time.perf_counter\n"
        result = lint_tree(tmp_path, {"obs/recorder.py": src}, [WallClockRule()])
        assert codes(result) == []

    def test_rule_still_fires_alongside_obs(self, tmp_path):
        # The obs exemption must not loosen the rule anywhere else: the
        # same clock read in a pure package stays an error even when an
        # exempt obs module sits in the same tree.
        files = {
            "obs/recorder.py": "import time\nclock = time.perf_counter\n",
            "runtime/bad.py": "import time\nt = time.perf_counter()\n",
        }
        result = lint_tree(tmp_path, files, [WallClockRule()])
        assert codes(result) == ["RPL004"]

    def test_exemption_disjoint_from_pure_packages(self):
        # A package cannot be both bit-reproducible and clock-reading;
        # the module-level assert enforces this at import, the test keeps
        # it visible.
        from repro.devtools.rules_determinism import PURE_PACKAGES, WALL_CLOCK_EXEMPT

        assert not (WALL_CLOCK_EXEMPT & PURE_PACKAGES)
        assert "obs" in WALL_CLOCK_EXEMPT


class TestParityManifestRule:
    def test_unregistered_dispatcher_flagged(self, tmp_path):
        src = 'def shiny(graph, *, backend="auto"):\n    return 0.0\n'
        result = lint_tree(tmp_path, {"metrics/new.py": src}, [ParityManifestRule()])
        assert codes(result) == ["RPL005"]

    def test_function_without_backend_not_flagged(self, tmp_path):
        src = "def plain(graph, sample=10):\n    return 0.0\n"
        result = lint_tree(tmp_path, {"metrics/new.py": src}, [ParityManifestRule()])
        assert codes(result) == []

    def test_covered_entries_reference_real_tests(self):
        parity_source = (REPO_ROOT / PARITY_TEST_FILE).read_text(encoding="utf-8")
        for qualname, test_name in PARITY_COVERED.items():
            assert f"def {test_name}(" in parity_source, (
                f"{qualname} claims coverage by {test_name}, which does not "
                f"exist in {PARITY_TEST_FILE}"
            )

    def test_exemptions_carry_reasons(self):
        for qualname, reason in PARITY_EXEMPT.items():
            assert reason.strip(), f"exemption for {qualname} lacks a reason"

    def test_unregistered_engine_dispatcher_flagged(self, tmp_path):
        src = 'def build(config, *, engine="legacy"):\n    return 0\n'
        result = lint_tree(tmp_path, {"gen/new.py": src}, [ParityManifestRule()])
        assert codes(result) == ["RPL005"]

    def test_engine_object_parameter_not_flagged(self, tmp_path):
        # An `engine` parameter *without* a string default passes an engine
        # object, which is not string dispatch.
        src = "def degree(engine):\n    return engine.average_degree()\n"
        result = lint_tree(tmp_path, {"runtime/new.py": src}, [ParityManifestRule()])
        assert codes(result) == []

    def test_engine_covered_entries_reference_real_tests(self):
        engine_source = (REPO_ROOT / ENGINE_EQUIVALENCE_TEST_FILE).read_text(encoding="utf-8")
        for qualname, test_name in ENGINE_EQUIVALENCE_COVERED.items():
            assert f"def {test_name}(" in engine_source, (
                f"{qualname} claims equivalence coverage by {test_name}, "
                f"which does not exist in {ENGINE_EQUIVALENCE_TEST_FILE}"
            )


class TestNarrowArithmeticRule:
    def test_uint16_arithmetic_flagged(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def bump(n):\n"
            "    codes = np.zeros(n, dtype=np.uint16)\n"
            "    return codes + 1\n"
        )
        result = lint_tree(tmp_path, {"store/bad.py": src}, [NarrowArithmeticRule()])
        assert codes(result) == ["RPL020"]

    def test_guarded_uint16_arithmetic_not_flagged(self, tmp_path):
        # A preceding bounds check naming the operand counts as a guard.
        src = (
            "import numpy as np\n"
            "def bump(n):\n"
            "    codes = np.zeros(n, dtype=np.uint16)\n"
            "    if int(codes.max()) < 60000:\n"
            "        return codes + 1\n"
            "    return codes\n"
        )
        result = lint_tree(tmp_path, {"store/good.py": src}, [NarrowArithmeticRule()])
        assert codes(result) == []

    def test_packing_shift_flagged(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def pack(a, b):\n"
            "    lo = np.asarray(a, dtype=np.int64)\n"
            "    return (lo << 32) | b\n"
        )
        result = lint_tree(tmp_path, {"gen/bad.py": src}, [NarrowArithmeticRule()])
        assert codes(result) == ["RPL020"]
        (finding,) = [d for d in result.diagnostics if d.status == "error"]
        assert "packing shift by 32 bits" in finding.message

    def test_int64_arithmetic_not_flagged(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def bump(n):\n"
            "    x = np.zeros(n, dtype=np.int64)\n"
            "    return x + 1\n"
        )
        result = lint_tree(tmp_path, {"kernels/good.py": src}, [NarrowArithmeticRule()])
        assert codes(result) == []

    def test_alias_annotated_param_tracked(self, tmp_path):
        # Parameter dtypes are seeded from repro.util.arrays annotations.
        src = (
            "from repro.util.arrays import UInt16Array\n"
            "def bump(codes: UInt16Array):\n"
            "    return codes * 2\n"
        )
        result = lint_tree(tmp_path, {"store/bad.py": src}, [NarrowArithmeticRule()])
        assert codes(result) == ["RPL020"]


class TestDowncastWithoutGuardRule:
    def test_asarray_downcast_flagged(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def pack(values):\n"
            "    return np.asarray(values, dtype='<u2')\n"
        )
        result = lint_tree(tmp_path, {"store/bad.py": src}, [DowncastWithoutGuardRule()])
        assert codes(result) == ["RPL021"]

    def test_astype_downcast_flagged(self, tmp_path):
        src = "def pack(arr):\n    return arr.astype('uint16')\n"
        result = lint_tree(tmp_path, {"store/bad.py": src}, [DowncastWithoutGuardRule()])
        assert codes(result) == ["RPL021"]

    def test_guarded_downcast_not_flagged(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def pack(values):\n"
            "    if values.max() >= 1 << 16:\n"
            "        raise ValueError('out of range')\n"
            "    return np.asarray(values, dtype='<u2')\n"
        )
        result = lint_tree(tmp_path, {"store/good.py": src}, [DowncastWithoutGuardRule()])
        assert codes(result) == []

    def test_widening_cast_not_flagged(self, tmp_path):
        # uint8 -> uint16 cannot wrap: the source is provably narrower.
        src = (
            "import numpy as np\n"
            "def widen(n):\n"
            "    small = np.zeros(n, dtype=np.uint8)\n"
            "    return small.astype(np.uint16)\n"
        )
        result = lint_tree(tmp_path, {"store/good.py": src}, [DowncastWithoutGuardRule()])
        assert codes(result) == []

    def test_cast_to_wide_dtype_not_flagged(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def pack(values):\n"
            "    return np.asarray(values, dtype=np.int64)\n"
        )
        result = lint_tree(tmp_path, {"store/good.py": src}, [DowncastWithoutGuardRule()])
        assert codes(result) == []


class TestUnsizedAccumulatorRule:
    def test_cumsum_without_dtype_flagged(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def offsets(sizes):\n"
            "    return np.cumsum(sizes)\n"
        )
        result = lint_tree(tmp_path, {"kernels/bad.py": src}, [UnsizedAccumulatorRule()])
        assert codes(result) == ["RPL022"]

    def test_cumsum_with_dtype_not_flagged(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def offsets(sizes):\n"
            "    return np.cumsum(sizes, dtype=np.int64)\n"
        )
        result = lint_tree(tmp_path, {"kernels/good.py": src}, [UnsizedAccumulatorRule()])
        assert codes(result) == []

    def test_provably_wide_input_not_flagged(self, tmp_path):
        # A 64-bit operand cannot narrow: the dataflow layer proves it.
        src = (
            "import numpy as np\n"
            "def offsets(n):\n"
            "    sizes = np.zeros(n, dtype=np.int64)\n"
            "    return np.cumsum(sizes)\n"
        )
        result = lint_tree(tmp_path, {"kernels/good.py": src}, [UnsizedAccumulatorRule()])
        assert codes(result) == []

    def test_method_form_flagged(self, tmp_path):
        src = "def offsets(sizes):\n    return sizes.cumsum()\n"
        result = lint_tree(tmp_path, {"kernels/bad.py": src}, [UnsizedAccumulatorRule()])
        assert codes(result) == ["RPL022"]

    def test_math_prod_not_flagged(self, tmp_path):
        # math.prod is arbitrary-precision python int — no accumulator width.
        src = "import math\ndef total(xs):\n    return math.prod(xs)\n"
        result = lint_tree(tmp_path, {"util/good.py": src}, [UnsizedAccumulatorRule()])
        assert codes(result) == []


class TestMemmapMutationRule:
    def test_subscript_write_flagged(self, tmp_path):
        src = (
            "def patch(reader):\n"
            "    ids = reader.column('node_ids')\n"
            "    ids[0] = -1\n"
            "    return ids\n"
        )
        result = lint_tree(tmp_path, {"store/bad.py": src}, [MemmapMutationRule()])
        assert codes(result) == ["RPL023"]

    def test_inplace_method_and_out_kwarg_flagged(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def scan(reader, other):\n"
            "    ids = reader.column('node_ids')\n"
            "    ids.sort()\n"
            "    np.add(other, 1, out=ids)\n"
        )
        result = lint_tree(tmp_path, {"store/bad.py": src}, [MemmapMutationRule()])
        assert codes(result) == ["RPL023", "RPL023"]

    def test_alias_taint_propagates(self, tmp_path):
        src = (
            "def patch(reader):\n"
            "    arrays = reader.node_arrays()\n"
            "    view = arrays\n"
            "    view[0] += 1\n"
        )
        result = lint_tree(tmp_path, {"store/bad.py": src}, [MemmapMutationRule()])
        assert codes(result) == ["RPL023"]

    def test_copy_before_write_not_flagged(self, tmp_path):
        src = (
            "def patch(reader):\n"
            "    ids = reader.column('node_ids').copy()\n"
            "    ids[0] = -1\n"
            "    return ids\n"
        )
        result = lint_tree(tmp_path, {"store/good.py": src}, [MemmapMutationRule()])
        assert codes(result) == []


class TestPoolCallableRule:
    def test_lambda_submission_flagged(self, tmp_path):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(lambda x: x + 1, items))\n"
        )
        result = lint_tree(tmp_path, {"runtime/bad.py": src}, [PoolCallableRule()])
        assert codes(result) == ["RPL030"]

    def test_local_function_flagged(self, tmp_path):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(items):\n"
            "    def work(x):\n"
            "        return x + 1\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, items))\n"
        )
        result = lint_tree(tmp_path, {"runtime/bad.py": src}, [PoolCallableRule()])
        assert codes(result) == ["RPL030"]

    def test_name_bound_to_lambda_flagged(self, tmp_path):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(items):\n"
            "    work = lambda x: x + 1\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, items))\n"
        )
        result = lint_tree(tmp_path, {"runtime/bad.py": src}, [PoolCallableRule()])
        assert codes(result) == ["RPL030"]

    def test_module_function_not_flagged(self, tmp_path):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(x):\n"
            "    return x + 1\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, items))\n"
        )
        result = lint_tree(tmp_path, {"runtime/good.py": src}, [PoolCallableRule()])
        assert codes(result) == []


class TestWorkerManifestRule:
    def test_unregistered_worker_flagged(self, tmp_path):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(x):\n"
            "    return x + 1\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, items))\n"
        )
        result = lint_tree(tmp_path, {"runtime/new.py": src}, [WorkerManifestRule()])
        assert codes(result) == ["RPL031"]
        (finding,) = [d for d in result.diagnostics if d.status == "error"]
        assert "runtime.new.work" in finding.message

    def test_unresolvable_target_flagged(self, tmp_path):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(handlers, items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(handlers[0], it) for it in items]\n"
        )
        result = lint_tree(tmp_path, {"runtime/new.py": src}, [WorkerManifestRule()])
        assert codes(result) == ["RPL031"]
        (finding,) = [d for d in result.diagnostics if d.status == "error"]
        assert "cannot statically resolve" in finding.message

    def test_manifest_entries_resolve_to_real_functions(self):
        # The manifest rots like the parity one would: a renamed worker
        # must fail here, not leave the whitelist pointing at nothing.
        for qualname in WORKER_MANIFEST:
            module_name, _, fn_name = qualname.rpartition(".")
            fn = getattr(importlib.import_module(module_name), fn_name, None)
            assert callable(fn), f"{qualname} does not resolve to a callable"

    def test_manifest_payloads_are_whitelisted(self):
        for qualname, payload in WORKER_MANIFEST.items():
            unknown = set(payload) - PICKLE_WHITELIST
            assert not unknown, (
                f"{qualname} declares payload types {sorted(unknown)} missing "
                "from PICKLE_WHITELIST"
            )

    def test_exemptions_carry_reasons(self):
        for qualname, reason in WORKER_EXEMPT.items():
            assert reason.strip(), f"exemption for {qualname} lacks a reason"


class TestWorkerGlobalsRule:
    def test_uninstalled_global_read_flagged(self, tmp_path):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_STATE = None\n"
            "def setup(value):\n"
            "    global _STATE\n"
            "    _STATE = value\n"
            "def work(x):\n"
            "    return _STATE + x\n"
            "def run(items):\n"
            "    setup(1)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, items))\n"
        )
        result = lint_tree(tmp_path, {"runtime/bad.py": src}, [WorkerGlobalsRule()])
        assert codes(result) == ["RPL032"]

    def test_initializer_installed_global_not_flagged(self, tmp_path):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_STATE = None\n"
            "def _init(value):\n"
            "    global _STATE\n"
            "    _STATE = value\n"
            "def work(x):\n"
            "    return _STATE + x\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor(initializer=_init, initargs=(1,)) as pool:\n"
            "        return list(pool.map(work, items))\n"
        )
        result = lint_tree(tmp_path, {"runtime/good.py": src}, [WorkerGlobalsRule()])
        assert codes(result) == []

    def test_dict_literal_initializer_recognized(self, tmp_path):
        # The runtime builds pool kwargs as a dict and splats them; the
        # rule must see an initializer through that idiom too.
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_STATE = None\n"
            "def _init(value):\n"
            "    global _STATE\n"
            "    _STATE = value\n"
            "def work(x):\n"
            "    return _STATE + x\n"
            "def run(items):\n"
            '    kwargs = {"initializer": _init, "initargs": (1,)}\n'
            "    with ProcessPoolExecutor(**kwargs) as pool:\n"
            "        return list(pool.map(work, items))\n"
        )
        result = lint_tree(tmp_path, {"runtime/good.py": src}, [WorkerGlobalsRule()])
        assert codes(result) == []


class TestBlockingAsyncRule:
    def test_time_sleep_in_async_flagged(self, tmp_path):
        src = "import time\nasync def poll():\n    time.sleep(1)\n"
        result = lint_tree(tmp_path, {"runtime/bad.py": src}, [BlockingAsyncRule()])
        assert codes(result) == ["RPL033"]

    def test_from_import_alias_flagged(self, tmp_path):
        src = (
            "from subprocess import run as sh\n"
            "async def deploy():\n"
            "    return sh(['ls'])\n"
        )
        result = lint_tree(tmp_path, {"runtime/bad.py": src}, [BlockingAsyncRule()])
        assert codes(result) == ["RPL033"]

    def test_blocking_builtin_flagged(self, tmp_path):
        src = "async def read(path):\n    with open(path) as fh:\n        return fh.read()\n"
        result = lint_tree(tmp_path, {"runtime/bad.py": src}, [BlockingAsyncRule()])
        assert codes(result) == ["RPL033"]

    def test_dotted_module_receiver_flagged(self, tmp_path):
        # ``import urllib.request`` keys the import table by the dotted
        # name, so the receiver's whole attribute chain is looked up.
        src = (
            "import urllib.request\n"
            "async def fetch(url):\n"
            "    body = await read(url)\n"
            "    return urllib.request.urlopen(url), body\n"
        )
        result = lint_tree(tmp_path, {"serve/bad.py": src}, [BlockingAsyncRule()])
        assert [(d.line, d.rule) for d in result.diagnostics] == [(4, "RPL033")]
        assert "urllib.request.urlopen()" in result.diagnostics[0].message

    def test_unimported_dotted_receiver_not_flagged(self, tmp_path):
        src = "async def fetch(client, url):\n    return client.request.urlopen(url)\n"
        result = lint_tree(tmp_path, {"serve/good.py": src}, [BlockingAsyncRule()])
        assert codes(result) == []

    def test_sync_function_not_flagged(self, tmp_path):
        src = "import time\ndef poll():\n    time.sleep(1)\n"
        result = lint_tree(tmp_path, {"runtime/good.py": src}, [BlockingAsyncRule()])
        assert codes(result) == []

    def test_asyncio_sleep_not_flagged(self, tmp_path):
        src = "import asyncio\nasync def poll():\n    await asyncio.sleep(1)\n"
        result = lint_tree(tmp_path, {"runtime/good.py": src}, [BlockingAsyncRule()])
        assert codes(result) == []

    def test_report_write_inside_async_driver_flagged(self, tmp_path):
        # The violation shape hit while building repro.serve.loadgen:
        # dumping the run report with builtin open() inside the async
        # driver.  The rule flagging exactly this is why report writing
        # lives in the sync CLI command (_cmd_loadgen), not in _run().
        src = (
            "import json\n"
            "async def _run(config):\n"
            "    report = {'aggregate': {}}\n"
            "    with open('BENCH_serve.json', 'w') as fh:\n"
            "        json.dump(report, fh)\n"
            "    return report\n"
        )
        result = lint_tree(tmp_path, {"serve/loadgen.py": src}, [BlockingAsyncRule()])
        assert codes(result) == ["RPL033"]

    def test_shipped_serve_async_code_clean(self):
        # repro.serve is the largest body of async code in the tree; it
        # must stay RPL033-clean as shipped.
        root = REPO_ROOT / "src" / "repro"
        files = sorted((root / "serve").glob("*.py"))
        assert files, "repro.serve sources not found"
        modules = discover_modules(root, files=files)
        result = run_rules(modules, [BlockingAsyncRule()])
        assert codes(result) == []


class TestImportTable:
    """One import per form the shared import table resolves."""

    SOURCE = (
        "import numpy\n"
        "import numpy as np\n"
        "import os.path\n"
        "from time import time as now\n"
        "from concurrent.futures import ProcessPoolExecutor as PPE\n"
        "from repro.util.arrays import IntArray as IA\n"
        "numpy.random.seed(0)\n"
        "noise = np.random.rand(3)\n"
        "began = now()\n"
        "codes = numpy.zeros(3, dtype=np.uint16)\n"
        "bumped = codes + 1\n"
        "def total(ids: IA):\n"
        "    return np.cumsum(ids)\n"
        "def fan_out():\n"
        "    with PPE() as pool:\n"
        "        pool.submit(lambda: 0)\n"
        "async def handler(path):\n"
        "    os.system('true')\n"
        "    return open(path)\n"
    )

    def test_table_maps_each_local_name_to_its_origin(self, tmp_path):
        (tmp_path / "runtime").mkdir()
        (tmp_path / "runtime" / "forms.py").write_text(self.SOURCE, encoding="utf-8")
        (module,) = discover_modules(tmp_path)
        assert module.imports == {
            "numpy": "numpy",
            "np": "numpy",
            "os.path": "os.path",
            "now": "time.time",
            "PPE": "concurrent.futures.ProcessPoolExecutor",
            "IA": "repro.util.arrays.IntArray",
        }

    def test_findings_through_every_form(self, tmp_path):
        result = lint_tree(tmp_path, {"runtime/forms.py": self.SOURCE})
        found = [(d.line, d.rule) for d in result.diagnostics if d.status == "error"]
        assert found == [
            (7, "RPL002"),  # numpy.random.seed via `import numpy`
            (8, "RPL002"),  # np.random.rand via `import numpy as np`
            (9, "RPL004"),  # now() is time.time
            (11, "RPL020"),  # uint16 from numpy.zeros(dtype=np.uint16)
            (16, "RPL030"),  # lambda submitted to a PPE pool
            (19, "RPL033"),  # open() in async def
        ]
        # Not findings: `ids: IA` is int64, so np.cumsum(ids) cannot narrow
        # (RPL022), and `import os.path` does not bind `os` as the os module,
        # so os.system() is not resolved (RPL033).


class TestSuppressions:
    def test_justified_suppression_suppresses(self, tmp_path):
        src = "s = {1, 2}\nfor x in s:  # repro: noqa[RPL001] -- order-free\n    print(x)\n"
        result = lint_tree(tmp_path, {"metrics/mod.py": src}, [SetIterationRule()])
        assert codes(result) == []
        suppressed = [d for d in result.diagnostics if d.status == "suppressed"]
        assert len(suppressed) == 1
        assert suppressed[0].justification == "order-free"
        assert result.exit_code == 0

    def test_suppression_without_justification_rejected(self, tmp_path):
        src = "s = {1, 2}\nfor x in s:  # repro: noqa[RPL001]\n    print(x)\n"
        result = lint_tree(tmp_path, {"metrics/mod.py": src}, [SetIterationRule()])
        # The finding stays an error AND the bare noqa is itself flagged.
        assert sorted(codes(result)) == ["RPL001", "RPL100"]
        assert result.exit_code == 1

    def test_unused_suppression_flagged(self, tmp_path):
        src = "x = [1, 2]  # repro: noqa[RPL001] -- nothing here iterates a set\n"
        result = lint_tree(tmp_path, {"metrics/mod.py": src}, [SetIterationRule()])
        assert codes(result) == ["RPL101"]

    def test_noqa_inside_string_ignored(self, tmp_path):
        src = 's = "# repro: noqa[RPL001] -- not a comment"\n'
        result = lint_tree(tmp_path, {"metrics/mod.py": src}, [SetIterationRule()])
        assert codes(result) == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        src = "s = {1, 2}\nfor x in s:  # repro: noqa[RPL004] -- wrong rule\n    print(x)\n"
        result = lint_tree(tmp_path, {"metrics/mod.py": src}, [SetIterationRule()])
        assert sorted(codes(result)) == ["RPL001", "RPL101"]

    def test_subset_run_ignores_suppressions_of_deselected_rules(self, tmp_path):
        # A --select run must not flag the suppressions belonging to the
        # rules it skipped as unused (or unjustified).
        src = (
            "import time\n"
            "s = {1, 2}\n"
            "for x in s:  # repro: noqa[RPL001] -- order-free\n"
            "    t = time.time()\n"
        )
        rules = [SetIterationRule(), WallClockRule()]
        result = lint_tree(tmp_path, {"metrics/mod.py": src}, rules, select=["RPL004"])
        assert codes(result) == ["RPL004"]

    def test_subset_run_still_flags_unknown_code_suppressions(self, tmp_path):
        src = "x = 1  # repro: noqa[RPL999] -- no such rule\n"
        rules = [SetIterationRule(), WallClockRule()]
        result = lint_tree(tmp_path, {"metrics/mod.py": src}, rules, select=["RPL004"])
        assert codes(result) == ["RPL101"]


class TestLayeringRule:
    def test_kernels_importing_metrics_rejected(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "kernels/fast.py": "from metrics.helper import thing\n",
                "metrics/helper.py": "thing = 1\n",
            },
            [LayeringRule()],
        )
        assert codes(result) == ["RPL010"]
        (finding,) = [d for d in result.diagnostics if d.status == "error"]
        assert "eager back-edge" in finding.message
        assert "'kernels'" in finding.message and "'metrics'" in finding.message

    def test_undeclared_deferred_back_edge_rejected(self, tmp_path):
        src = "def f():\n    from runtime.sched import go\n    return go\n"
        result = lint_tree(
            tmp_path,
            {"graph/lazy.py": src, "runtime/sched.py": "go = 1\n"},
            [LayeringRule()],
        )
        assert codes(result) == ["RPL010"]
        (finding,) = [d for d in result.diagnostics if d.status == "error"]
        assert "undeclared deferred" in finding.message

    def test_serve_sits_with_analysis_below_cli(self):
        from repro.devtools.rules_layering import LAYERS

        assert LAYERS["serve"] == LAYERS["analysis"]
        assert LAYERS["runtime"] < LAYERS["serve"] < LAYERS["cli"]

    def test_serve_importing_cli_rejected(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "serve/server.py": "from cli import main\n",
                "cli/__init__.py": "main = 1\n",
            },
            [LayeringRule()],
        )
        assert codes(result) == ["RPL010"]
        (finding,) = [d for d in result.diagnostics if d.status == "error"]
        assert "'serve'" in finding.message and "'cli'" in finding.message

    def test_declared_deferred_seam_allowed(self, tmp_path, monkeypatch):
        from repro.devtools import rules_layering

        monkeypatch.setitem(
            rules_layering.DEFERRED_EDGES, ("metrics", "runtime"), "declared for this test"
        )
        src = "def f():\n    from runtime.api import S\n    return S\n"
        result = lint_tree(
            tmp_path,
            {"metrics/facade.py": src, "runtime/api.py": "S = 1\n"},
            [LayeringRule()],
        )
        assert codes(result) == []

    def test_type_checking_import_allowed(self, tmp_path):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from metrics.helper import thing\n"
        )
        result = lint_tree(
            tmp_path,
            {"kernels/typed.py": src, "metrics/helper.py": "thing = 1\n"},
            [LayeringRule()],
        )
        assert codes(result) == []

    def test_downward_import_allowed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "metrics/clever.py": "from kernels.fast import thing\n",
                "kernels/fast.py": "thing = 1\n",
            },
            [LayeringRule()],
        )
        assert codes(result) == []

    def test_eager_module_cycle_rejected(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "graph/a.py": "import graph.b\n",
                "graph/b.py": "import graph.a\n",
            },
            [LayeringRule()],
        )
        assert codes(result) == ["RPL010"]
        (finding,) = [d for d in result.diagnostics if d.status == "error"]
        assert "cycle" in finding.message

    def test_unknown_package_rejected(self, tmp_path):
        result = lint_tree(
            tmp_path, {"sidecar/new.py": "x = 1\n"}, [LayeringRule()]
        )
        assert codes(result) == ["RPL010"]
        (finding,) = [d for d in result.diagnostics if d.status == "error"]
        assert "not in the layer contract" in finding.message

    def test_render_dot_shape(self, tmp_path):
        for rel, source in {
            "metrics/clever.py": "from kernels.fast import thing\n",
            "kernels/fast.py": "thing = 1\n",
        }.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        dot = render_dot(discover_modules(tmp_path))
        assert dot.startswith("digraph layers {")
        assert '"metrics" -> "kernels" [style=solid];' in dot
        assert dot.rstrip().endswith("}")


class TestBaseline:
    def test_round_trip_demotes_findings(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"metrics/bad.py": "for x in {3, 1, 2}:\n    print(x)\n"},
            [SetIterationRule()],
        )
        assert result.exit_code == 1
        baseline_file = tmp_path / "baseline.json"
        assert write_baseline(baseline_file, result.diagnostics) == 1
        demoted = apply_baseline(result.diagnostics, load_baseline(baseline_file))
        assert [d.status for d in demoted] == ["baselined"]

    def test_new_duplicate_of_baselined_finding_still_fails(self, tmp_path):
        one = lint_tree(
            tmp_path,
            {"metrics/bad.py": "for x in {3, 1, 2}:\n    print(x)\n"},
            [SetIterationRule()],
        )
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, one.diagnostics)
        # Same finding duplicated on another line: one entry cannot cover two.
        two = lint_tree(
            tmp_path,
            {
                "metrics/bad.py": (
                    "for x in {3, 1, 2}:\n    print(x)\n"
                    "for y in {6, 5, 4}:\n    print(y)\n"
                )
            },
            [SetIterationRule()],
        )
        demoted = apply_baseline(two.diagnostics, load_baseline(baseline_file))
        assert sorted(d.status for d in demoted) == ["baselined", "error"]

    def test_round_trip_covers_array_and_parallel_rules(self, tmp_path):
        # The baseline machinery must treat the new rule families exactly
        # like the determinism ones: adopt-now, fix-later.
        src = (
            "import numpy as np\n"
            "import time\n"
            "def pack(values):\n"
            "    return np.asarray(values, dtype=np.uint16)\n"
            "async def poll():\n"
            "    time.sleep(1)\n"
        )
        rules = [DowncastWithoutGuardRule(), BlockingAsyncRule()]
        result = lint_tree(tmp_path, {"store/legacy.py": src}, rules)
        assert sorted(codes(result)) == ["RPL021", "RPL033"]
        baseline_file = tmp_path / "baseline.json"
        assert write_baseline(baseline_file, result.diagnostics) == 2
        demoted = apply_baseline(result.diagnostics, load_baseline(baseline_file))
        assert [d.status for d in demoted] == ["baselined", "baselined"]
        assert result.exit_code == 1


class TestCLI:
    def write(self, tmp_path, files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        self.write(tmp_path, {"metrics/good.py": "x = sorted({1, 2})\n"})
        assert main([str(tmp_path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self.write(tmp_path, {"metrics/bad.py": "for x in {3, 1}:\n    print(x)\n"})
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out and "metrics/bad.py:1" in out

    def test_exit_two_on_missing_root(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_json_format(self, tmp_path, capsys):
        self.write(tmp_path, {"metrics/bad.py": "for x in {3, 1}:\n    print(x)\n"})
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        (diag,) = payload["diagnostics"]
        assert diag["rule"] == "RPL001"
        assert diag["line"] == 1

    def test_select_filters_rules(self, tmp_path, capsys):
        self.write(
            tmp_path,
            {"metrics/bad.py": "import time\nfor x in {3, 1}:\n    t = time.time()\n"},
        )
        assert main([str(tmp_path), "--select", "RPL004"]) == 1
        out = capsys.readouterr().out
        assert "RPL004" in out and "RPL001" not in out

    def test_baseline_mode_warn_only(self, tmp_path, capsys):
        self.write(tmp_path, {"metrics/bad.py": "for x in {3, 1}:\n    print(x)\n"})
        baseline = tmp_path / "baseline.json"
        assert main([str(tmp_path), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_dot_output_written(self, tmp_path, capsys):
        self.write(tmp_path, {"metrics/good.py": "x = 1\n"})
        dot_file = tmp_path / "graph.dot"
        assert main([str(tmp_path), "--dot", str(dot_file)]) == 0
        assert dot_file.read_text(encoding="utf-8").startswith("digraph layers {")

    def test_repro_cli_mounts_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        self.write(tmp_path, {"metrics/bad.py": "for x in {3, 1}:\n    print(x)\n"})
        assert cli_main(["lint", str(tmp_path)]) == 1
        assert "RPL001" in capsys.readouterr().out


class TestCLIPipeline:
    def test_broken_pipe_exits_quietly(self, tmp_path, capsys):
        import subprocess
        import sys as _sys

        # One module with 3,000 RPL002 findings: its report overflows the
        # 64 KiB pipe buffer, so `| head -c 1` really breaks the pipe.
        module = tmp_path / "analysis" / "rng.py"
        module.parent.mkdir()
        module.write_text(
            "".join(f"from random import choice as c{i}\n" for i in range(3000)),
            encoding="utf-8",
        )
        assert main([str(tmp_path)]) == 1
        assert len(capsys.readouterr().out.encode()) > 64 * 1024
        # The CLI must exit without a traceback once stdout is closed.
        proc = subprocess.run(
            f"set -o pipefail; {_sys.executable} -m repro.devtools.lint {tmp_path} | head -c 1",
            shell=True,
            executable="/bin/bash",
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ""
        assert proc.returncode == 1


@pytest.fixture(scope="module")
def repo_lint():
    """One repo-wide lint run, shared by the tests that only read its findings."""
    return run_lint(default_root())


class TestRepositoryIsClean:
    def test_repo_lints_clean(self, repo_lint):
        errors = [d for d in repo_lint.diagnostics if d.status == "error"]
        assert errors == [], "\n".join(d.location + " " + d.message for d in errors)
        assert repo_lint.exit_code == 0

    def test_every_repo_suppression_is_justified(self, repo_lint):
        for diag in repo_lint.diagnostics:
            if diag.status == "suppressed":
                assert diag.justification and diag.justification.strip()

    def test_full_rule_set_registered(self):
        assert [r.code for r in all_rules()] == [
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
            "RPL020",
            "RPL021",
            "RPL022",
            "RPL023",
            "RPL030",
            "RPL031",
            "RPL032",
            "RPL033",
            "RPL010",
        ]
        assert [r.code for r in determinism_rules()] == [
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
        ]
        assert [r.code for r in array_rules()] == [
            "RPL020",
            "RPL021",
            "RPL022",
            "RPL023",
        ]
        assert [r.code for r in parallel_rules()] == [
            "RPL030",
            "RPL031",
            "RPL032",
            "RPL033",
        ]

    def test_lint_runtime_budget(self):
        # The dataflow pass runs on every CI push; a quietly quadratic
        # dtype inference would first show up as CI latency.  Repo-wide
        # lint must stay under 10 s (about 1.0 s on a 2-vCPU container).
        began = time.perf_counter()
        run_lint(default_root())
        assert time.perf_counter() - began < 10.0
