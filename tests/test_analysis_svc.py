"""SVC4xx analyzer tests: shared state, store writes, completion order."""

import textwrap

from repro.analysis.project import Project
from repro.analysis.svc import check_service_atomicity


def check(sources):
    project = Project.from_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()}
    )
    return check_service_atomicity(project)


def codes(sources):
    return [d.code for d in check(sources)]


WORKER = {
    "src/repro/service/tasks.py": """
    from repro.obs.campaign import run_cell

    def execute_cell(payload):
        return run_cell(payload)
    """,
}


class TestSVC401SharedState:
    def test_mutated_global_in_reachable_module(self):
        sources = dict(WORKER)
        sources["src/repro/obs/campaign.py"] = """
        _RESULTS = []

        def run_cell(payload):
            _RESULTS.append(payload)
            return payload
        """
        assert "SVC401" in codes(sources)

    def test_unreachable_module_not_flagged(self):
        sources = dict(WORKER)
        sources["src/repro/obs/campaign.py"] = "def run_cell(p):\n    return p\n"
        sources["src/repro/sim/flow.py"] = """
        _CACHE = {}

        def remember(key, value):
            _CACHE[key] = value
        """
        assert codes(sources) == []

    def test_unmutated_global_not_flagged(self):
        sources = dict(WORKER)
        sources["src/repro/obs/campaign.py"] = """
        _KNOWN = {"a": 1}

        def run_cell(payload):
            return _KNOWN.get(payload, payload)
        """
        assert codes(sources) == []

    def test_shadowed_local_not_flagged(self):
        sources = dict(WORKER)
        sources["src/repro/obs/campaign.py"] = """
        _RESULTS = []

        def run_cell(payload):
            _RESULTS = []
            _RESULTS.append(payload)
            return payload
        """
        assert codes(sources) == []

    def test_global_statement_unshadows(self):
        sources = dict(WORKER)
        sources["src/repro/obs/campaign.py"] = """
        _COUNT = {}

        def run_cell(payload):
            global _COUNT
            _COUNT = {}
            _COUNT[payload] = 1
            return payload
        """
        assert "SVC401" in codes(sources)

    def test_cross_module_mutation_flagged(self):
        sources = dict(WORKER)
        sources["src/repro/obs/campaign.py"] = """
        from repro.obs import registry

        def run_cell(payload):
            registry.SEEN.append(payload)
            return payload
        """
        sources["src/repro/obs/registry.py"] = "SEEN = []\n"
        assert "SVC401" in codes(sources)

    def test_noqa_suppresses(self):
        sources = dict(WORKER)
        sources["src/repro/obs/campaign.py"] = """
        _RESULTS = []  # noqa: SVC401 process-local by design

        def run_cell(payload):
            _RESULTS.append(payload)
            return payload
        """
        assert codes(sources) == []


class TestSVC402StoreWrites:
    def test_raw_write_into_campaigns_flagged(self):
        found = codes(
            {
                "src/repro/obs/export.py": """
                def dump(payload):
                    with open("campaigns/results.jsonl", "a") as handle:
                        handle.write(payload)
                """
            }
        )
        assert "SVC402" in found

    def test_sanctioned_module_exempt(self):
        found = codes(
            {
                "src/repro/obs/store.py": """
                def append_line(payload):
                    with open("campaigns/results.jsonl", "a") as handle:
                        handle.write(payload)
                """
            }
        )
        assert found == []

    def test_read_mode_not_flagged(self):
        found = codes(
            {
                "src/repro/obs/export.py": """
                def load():
                    with open("campaigns/results.jsonl") as handle:
                        return handle.read()
                """
            }
        )
        assert found == []

    def test_unrelated_path_not_flagged(self):
        found = codes(
            {
                "src/repro/obs/export.py": """
                def dump(payload, path):
                    with open("/tmp/out.json", "w") as handle:
                        handle.write(payload)
                """
            }
        )
        assert found == []

    def test_path_through_variable_flagged(self):
        found = codes(
            {
                "src/repro/obs/export.py": """
                TARGET = "service/queue.jsonl"

                def dump(payload):
                    with open(TARGET, "w") as handle:
                        handle.write(payload)
                """
            }
        )
        assert "SVC402" in found


class TestSVC403CompletionOrder:
    def test_imap_unordered_into_append_cell(self):
        found = codes(
            {
                "src/repro/service/collect.py": """
                def drain(pool, store, specs):
                    cells = []
                    for result in pool.imap_unordered(run, specs):
                        cells.append(result)
                    store.append_cell("results", cells)
                """
            }
        )
        assert "SVC403" in found

    def test_imap_unordered_into_batch_append(self):
        found = codes(
            {
                "src/repro/service/collect.py": """
                def drain(pool, store, specs):
                    cells = list(pool.imap_unordered(run, specs))
                    store.append_cells("results", cells)
                """
            }
        )
        assert "SVC403" in found

    def test_as_completed_into_store(self):
        found = codes(
            {
                "src/repro/service/collect.py": """
                from concurrent.futures import as_completed
                from repro.obs.store import StoredCell

                def drain(futures):
                    done = []
                    for future in as_completed(futures):
                        done.append(future.result())
                    return StoredCell(cell_id="c", key=done)
                """
            }
        )
        assert "SVC403" in found

    def test_sorted_before_store_is_clean(self):
        found = codes(
            {
                "src/repro/service/collect.py": """
                def drain(pool, store, specs):
                    cells = []
                    for result in pool.imap_unordered(run, specs):
                        cells.append(result)
                    for cell in sorted(cells, key=lambda c: c.cell_id):
                        store.append_cell("results", cell)
                """
            }
        )
        assert found == []

    def test_workerpool_run_is_not_a_source(self):
        # WorkerPool.run returns outcomes in submission order by contract.
        found = codes(
            {
                "src/repro/service/collect.py": """
                def drain(pool, store, specs):
                    cells = []
                    for outcome in pool.run(specs):
                        cells.append(outcome.result)
                    store.append_cell("results", cells)
                """
            }
        )
        assert found == []

    def test_order_insensitive_reduction_is_clean(self):
        found = codes(
            {
                "src/repro/service/collect.py": """
                def total(pool, store, specs):
                    seconds = sum(
                        r.wall for r in pool.imap_unordered(run, specs)
                    )
                    store.append_cell("results", seconds)
                """
            }
        )
        assert found == []


class TestRealTreeInvariants:
    def test_scheduler_and_tasks_are_clean(self):
        # The in-tree service layer must stay free of SVC4xx findings:
        # _persist_cells sorts by cell id; queue/cache own their files.
        project = Project.load(["src/repro/service"])
        diagnostics = check_service_atomicity(project)
        assert [d.code for d in diagnostics] == []
