"""Tests for users, groups, visibility, and per-query grants."""

import pytest

from repro.core.access_control import AccessControl, Principal, Visibility
from repro.core.query_store import QueryStore
from repro.core.records import LoggedQuery
from repro.errors import AccessControlError


def record(qid=1, user="alice", group="lab1", visibility="group"):
    return LoggedQuery(
        qid=qid, user=user, group=group, text="SELECT 1", timestamp=0.0, visibility=visibility
    )


@pytest.fixture()
def acl():
    control = AccessControl()
    control.register("alice", "lab1")
    control.register("bob", "lab1")
    control.register("carol", "lab2")
    control.register("root", "ops", is_admin=True)
    return control


class TestPrincipals:
    def test_register_and_lookup(self, acl):
        principal = acl.principal("alice")
        assert principal == Principal(name="alice", group="lab1")

    def test_unknown_principal_raises(self, acl):
        with pytest.raises(AccessControlError):
            acl.principal("mallory")

    def test_has_principal(self, acl):
        assert acl.has_principal("bob")
        assert not acl.has_principal("mallory")

    def test_principals_sorted(self, acl):
        names = [principal.name for principal in acl.principals()]
        assert names == sorted(names)

    def test_re_register_updates_group(self, acl):
        acl.register("alice", "lab9")
        assert acl.principal("alice").group == "lab9"


class TestVisibility:
    def test_parse_from_string(self):
        assert Visibility.parse("PUBLIC") is Visibility.PUBLIC
        assert Visibility.parse(Visibility.PRIVATE) is Visibility.PRIVATE

    def test_parse_unknown_raises(self):
        with pytest.raises(AccessControlError):
            Visibility.parse("secret")

    def test_owner_always_sees_own_query(self, acl):
        assert acl.can_see("alice", record(visibility="private"))

    def test_group_visibility(self, acl):
        group_record = record(visibility="group")
        assert acl.can_see("bob", group_record)        # same group
        assert not acl.can_see("carol", group_record)  # other group

    def test_private_visibility(self, acl):
        private_record = record(visibility="private")
        assert not acl.can_see("bob", private_record)

    def test_public_visibility(self, acl):
        assert acl.can_see("carol", record(visibility="public"))

    def test_admin_sees_everything(self, acl):
        assert acl.can_see("root", record(visibility="private"))

    def test_visible_qids_filters(self, acl):
        store = QueryStore()
        for qid, visibility in enumerate(("private", "group", "public"), start=1):
            store.add(record(qid=qid, visibility=visibility))
        assert set(acl.visible_qids("carol", store)) == {3}
        assert set(acl.visible_qids("bob", store)) == {2, 3}
        assert set(acl.visible_qids("alice", store)) == {1, 2, 3}
        assert set(acl.visible_qids("root", store)) == {1, 2, 3}
        acl.grant(1, "carol")
        acl.grant(9, "carol")  # no such query: granted, but nothing to see
        assert set(acl.visible_qids("carol", store)) == {1, 3}
        acl.revoke(1, "carol")
        assert set(acl.visible_qids("carol", store)) == {3}


class TestGrants:
    def test_explicit_grant_overrides_visibility(self, acl):
        private_record = record(qid=5, visibility="private")
        acl.grant(5, "carol")
        assert acl.can_see("carol", private_record)
        assert acl.grants_for(5) == {"carol"}

    def test_revoke(self, acl):
        private_record = record(qid=5, visibility="private")
        acl.grant(5, "carol")
        acl.revoke(5, "carol")
        assert not acl.can_see("carol", private_record)

    def test_revoke_nonexistent_is_noop(self, acl):
        acl.revoke(123, "bob")


class TestOwnershipChecks:
    def test_owner_allowed(self, acl):
        acl.require_owner_or_admin("alice", record(user="alice"))

    def test_admin_allowed(self, acl):
        acl.require_owner_or_admin("root", record(user="alice"))

    def test_other_user_rejected(self, acl):
        with pytest.raises(AccessControlError):
            acl.require_owner_or_admin("bob", record(user="alice"))


class TestStoredVisibility:
    """Every visibility the Query Storage holds is one of the three values,
    lower-cased: its visibility postings are keyed by them."""

    def test_submit_refuses_an_unknown_visibility_before_running(self, fresh_cqms):
        lakes = len(fresh_cqms.database.execute("SELECT * FROM Lakes").rows)
        with pytest.raises(AccessControlError, match="unknown visibility 'bogus'"):
            fresh_cqms.submit("alice", "DELETE FROM Lakes", visibility="bogus")
        assert len(fresh_cqms.database.execute("SELECT * FROM Lakes").rows) == lakes
        assert len(fresh_cqms.store) == 0
        fresh_cqms.submit("alice", "SELECT * FROM Lakes")
        assert [r.qid for r in fresh_cqms.search_keyword("bob", "lakes")] == [1]
        assert fresh_cqms.search_keyword("carol", "lakes") == []

    def test_submit_stores_the_visibility_lower_cased(self, fresh_cqms):
        record = fresh_cqms.submit("alice", "SELECT * FROM Lakes", visibility="PUBLIC").record
        assert record.visibility == "public"
        (row,) = fresh_cqms.store.meta_database.table("Queries").rows()
        assert "public" in row and "PUBLIC" not in row
        assert [r.qid for r in fresh_cqms.search_keyword("carol", "lakes")] == [record.qid]

    def test_the_store_checks_what_it_is_given(self):
        store = QueryStore()
        with pytest.raises(AccessControlError):
            store.add(record(qid=1, visibility="bogus"))
        assert len(store) == 0 and not store.meta_database.table("Queries").rows()
        store.add(record(qid=1, visibility="GROUP"))
        assert store.get(1).visibility == "group"
        store.set_visibility(1, "Public")
        assert store.get(1).visibility == "public"
        with pytest.raises(AccessControlError):
            store.set_visibility(1, "everyone")
        assert store.get(1).visibility == "public"

    def test_a_reopened_unknown_visibility_reads_private(self, tmp_path):
        """A row an older engine logged with an unchecked visibility is seen
        by its author (and administrators, and grantees) only."""
        data_dir = str(tmp_path / "store")
        store = QueryStore(data_dir=data_dir)
        store.add(record(qid=1, visibility="group"))
        table = store.meta_database.table("Queries")
        ((row_id, _),) = table.scan()
        table.update(row_id, {"visibility": "bogus"})
        store.close()
        reopened = QueryStore(data_dir=data_dir)
        assert reopened.get(1).visibility == "private"
        acl = AccessControl()
        acl.register("alice", "lab1")
        acl.register("bob", "lab1")
        assert set(acl.visible_qids("alice", reopened)) == {1}
        assert set(acl.visible_qids("bob", reopened)) == set()
        reopened.close()
