"""Figures 6 and 7: trust delegation to a third party.

"Secur", a security company, publishes signed firewall rules for the
thunderbird mail client.  The administrator's whole policy is a single
rule: run whatever Secur has approved, as long as the flow obeys Secur's
rules.  Unsigned applications and tampered rule files are rejected by
``verify()``.

Run with::

    python examples/thirdparty_trust.py
"""

from repro.analysis.report import format_table
from repro.workloads.scenarios import ThirdPartyTrustScenario


def main() -> None:
    scenario = ThirdPartyTrustScenario()
    rows = scenario.run()["rows"]
    print(format_table(rows, title="Figures 6-7 — Secur-approved applications"))

    delegated = scenario.net.controller.audit.delegated_decisions()
    print(f"\n{len(delegated)} decision(s) relied on Secur's signed rules; "
          f"Secur's key fingerprint: {scenario.secur.public_key.fingerprint()}")


if __name__ == "__main__":
    main()
