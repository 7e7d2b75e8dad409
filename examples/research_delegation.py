"""Figures 4 and 5: delegation to users, with revocation.

A researcher signs per-application rules ("research apps only talk to
each other") with her own key; the administrator's policy defers to
those rules via ``allowed()`` + ``verify()`` without ever having to open
ports by hand.  The example then shows the administrator's side of the
bargain: every delegated decision is audited, and the delegation can be
revoked, which tears down the flow entries it created.

Run with::

    python examples/research_delegation.py
"""

from repro.analysis.report import format_table
from repro.workloads.scenarios import ResearchDelegationScenario


def main() -> None:
    scenario = ResearchDelegationScenario()
    rows = scenario.run()["rows"]
    print(format_table(rows, title="Figures 4-5 — research delegation flow matrix"))

    controller = scenario.net.controller
    delegated = controller.audit.delegated_decisions()
    print("\nDelegated decisions recorded in the audit log:")
    for record in delegated:
        print(f"  {record.flow} -> {record.action} "
              f"(functions: {', '.join(record.delegation_functions)}; "
              f"src user: {record.src_keys.get('userID')})")

    # The administrator registers the researcher's key as an explicit grant so
    # its use is attributable — and revocable.
    controller.delegations.grant("research-grant", scenario.researcher_signer)
    for record in delegated:
        controller.delegations.record_use("research-grant", record.cookie)

    removed = controller.revoke_delegation("research-grant")
    print(f"\nRevoked the research delegation: {removed} cached flow entries removed;")
    print("the researcher's key no longer verifies and new flows fall back to 'block all'.")


if __name__ == "__main__":
    main()
