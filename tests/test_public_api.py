"""The consolidated front door: every package's ``__all__`` resolves,
and ``repro.connect`` picks the right deployment from a URL."""

import importlib

import pytest

import repro
from repro import Database
from repro.net.client import RemoteDatabase

PACKAGES = (
    "repro", "repro.chaos", "repro.core", "repro.dom", "repro.locking",
    "repro.net", "repro.obs", "repro.query", "repro.sched", "repro.shard",
    "repro.splid", "repro.storage", "repro.tamix", "repro.txn",
    "repro.verify",
)


@pytest.mark.parametrize("package", PACKAGES)
class TestPackageSurface:
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name, None) is not None, f"{package}.{name}"

    def test_no_duplicates(self, package):
        exported = importlib.import_module(package).__all__
        assert len(exported) == len(set(exported))

    def test_dir_lists_every_exported_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import_binds_every_name(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        exported = importlib.import_module(package).__all__
        assert set(exported) <= namespace.keys()


class TestLazyExports:
    def test_a_resolved_name_is_cached_in_the_package(self):
        import repro.query as query

        processor = query.QueryProcessor
        assert vars(query)["QueryProcessor"] is processor

    def test_a_submodule_name_is_that_submodule(self):
        import repro.net as net

        assert net.wire is importlib.import_module("repro.net.wire")

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name


class TestAll:
    def test_headline_names_are_exported(self):
        for name in ("Database", "RemoteDatabase", "connect", "Session",
                     "RemoteSession", "LockServer", "ServerConfig",
                     "RetryPolicy", "AdmissionPolicy", "DeadlockAbort",
                     "LockTimeout", "is_transient", "is_permanent"):
            assert name in repro.__all__


class TestConnect:
    def test_embedded_default(self):
        db = repro.connect()
        assert isinstance(db, Database)

    def test_embedded_with_protocol_path(self):
        db = repro.connect("embedded://taDOM2", root_element="bib")
        assert isinstance(db, Database)
        assert db.protocol.name == "taDOM2"

    def test_embedded_kwargs_pass_through(self):
        db = repro.connect("embedded://", protocol="Node2PL", lock_depth=2)
        assert db.protocol.name == "Node2PL"
        assert db.lock_depth == 2

    def test_tcp_builds_remote_handle_without_dialing(self):
        # the pool dials lazily, so a dead endpoint is fine to construct
        db = repro.connect("tcp://127.0.0.1:1", pool_size=1)
        assert isinstance(db, RemoteDatabase)
        db.close()

    def test_tcp_bad_port_rejected(self):
        with pytest.raises(ValueError):
            repro.connect("tcp://localhost:not-a-port")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            repro.connect("gopher://old-school")
