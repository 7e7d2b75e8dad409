"""The configuration listings of Figures 2–8, as loadable text.

Each function returns the text of one configuration file from the paper.
Where the paper prints a placeholder signature (``21oir...w3eda``) or
public key (``sk3ajf...fa932``), the functions take a
:class:`~repro.crypto.signatures.Signer` (or key material) and substitute
a real signature/key so that ``verify()`` actually verifies.

Addresses follow the paper where given (the mail server
``192.168.42.32``, the LAN ``192.168.0.0/24``, the server ``192.168.1.1``
and the skype update prefix ``123.123.123.0/24``); tables the paper
references but never defines (``<research-machines>``,
``<production-machines>``) get documented defaults here.
"""

from __future__ import annotations

from repro.crypto.signatures import Signer
from repro.hosts.applications import Application

# ---------------------------------------------------------------------------
# Section 3.3 example (the PF+=2 introduction rule)
# ---------------------------------------------------------------------------

SECTION_33_EXAMPLE = """\
table <mail-server> {192.168.42.32}
block all
pass from any \\
    with member(@src[groupID], users) \\
    with eq(@src[app-name], pine) \\
    to <mail-server> \\
    with eq(@dst[userID], smtp)
"""


# ---------------------------------------------------------------------------
# Figure 2: the three controller configuration files of the Skype policy
# ---------------------------------------------------------------------------

FIGURE2_LOCAL_HEADER = """\
table <server> { 192.168.1.1 }
table <lan> { 192.168.0.0/24 }
table <int_hosts> { <lan> <server> }

allowed = "{ http ssh }"   # a macro of apps

# default deny
block all

# allow connections outbound
pass from <int_hosts> \\
    to !<int_hosts> \\
    keep state

# allow all traffic from approved apps
pass from <int_hosts> \\
    to <int_hosts> \\
    with member(@src[name], $allowed) \\
    keep state
"""

FIGURE2_SKYPE = """\
table <skype_update> { 123.123.123.0/24 }

# skype to skype allowed
pass all \\
    with eq(@src[name], skype) \\
    with eq(@dst[name], skype)

# skype update feature
pass from any \\
    to <skype_update> port 80 \\
    with eq(@src[name], skype) \\
    keep state
"""

FIGURE2_LOCAL_FOOTER = """\
# no really old versions of skype
block all \\
    with eq(@src[name], skype) \\
    with lt(@src[version], 200)

# no skype to server
block from any \\
    to <server> \\
    with eq(@src[name], skype)
"""


def figure2_control_files() -> dict[str, str]:
    """Return the Figure 2 configuration exactly as the controller loads it."""
    return {
        "00-local-header.control": FIGURE2_LOCAL_HEADER,
        "50-skype.control": FIGURE2_SKYPE,
        "99-local-footer.control": FIGURE2_LOCAL_FOOTER,
    }


# ---------------------------------------------------------------------------
# Figure 3: the skype @app daemon configuration
# ---------------------------------------------------------------------------

SKYPE_REQUIREMENTS = (
    "pass from any port http with eq(@src[name], skype) "
    "pass from any port https with eq(@src[name], skype)"
)


def figure3_skype_daemon_config(app: Application, signer: Signer | None = None) -> str:
    """Return the Figure 3 ``@app /usr/bin/skype`` block.

    The paper shows a placeholder ``req-sig``; when a ``signer`` is given
    the signature is computed over ``(exe-hash, app-name, requirements)``
    exactly as the ``verify()`` calls in Figures 5 and 7 expect.
    """
    requirements = SKYPE_REQUIREMENTS
    if signer is not None:
        req_sig = signer.sign([app.exe_hash, app.name, requirements])
    else:
        req_sig = "21oir...w3eda"
    return f"""\
@app {app.path} {{
name : {app.name}
version : {app.version}
vendor : {app.vendor or 'skype.com'}
type : voip
requirements : {requirements}
req-sig : {req_sig}
}}
"""


# ---------------------------------------------------------------------------
# Figures 4 and 5: delegation to users (the research application)
# ---------------------------------------------------------------------------

RESEARCH_REQUIREMENTS = (
    "block all "
    "pass all with eq(@src[name], research-app) with eq(@dst[name], research-app)"
)

#: Default contents for the tables Figure 5 references but never defines.
DEFAULT_RESEARCH_MACHINES = ("192.168.2.0/24",)
DEFAULT_PRODUCTION_MACHINES = ("192.168.3.0/24",)


def figure4_research_daemon_config(app: Application, signer: Signer) -> str:
    """Return the Figure 4 ``research-app.conf`` with a real user signature."""
    requirements = RESEARCH_REQUIREMENTS
    req_sig = signer.sign([app.exe_hash, app.name, requirements])
    return f"""\
@app {app.path} {{
name : {app.name}
# research-apps only talk to each other
requirements : {requirements}
req-sig : {req_sig}
}}
"""


def figure5_research_control(research_pubkey_hex: str) -> dict[str, str]:
    """Return the Figure 5 ``30-research.control`` plus the table/default file it needs."""
    tables = f"""\
table <research-machines> {{ {' '.join(DEFAULT_RESEARCH_MACHINES)} }}
table <production-machines> {{ {' '.join(DEFAULT_PRODUCTION_MACHINES)} }}

# default deny
block all
"""
    research = f"""\
dict <pubkeys> {{ research : {research_pubkey_hex} }}

# Allow only researchers to run applications
# and only access their own machines.
# Let researchers specify what their apps need.
pass from <research-machines> \\
    with member(@src[groupID], research) \\
    to !<production-machines> \\
    with member(@dst[groupID], research) \\
    with allowed(@dst[requirements]) \\
    with verify(@dst[req-sig], \\
        @pubkeys[research], \\
        @dst[exe-hash], \\
        @dst[app-name], \\
        @dst[requirements])
"""
    return {
        "00-research-tables.control": tables,
        "30-research.control": research,
    }


# ---------------------------------------------------------------------------
# Figures 6 and 7: trust delegation to a third party ("Secur")
# ---------------------------------------------------------------------------

THUNDERBIRD_REQUIREMENTS = (
    "block all "
    "pass from any with eq(@src[name], thunderbird) "
    "to any with eq(@dst[type], email-server)"
)


def figure6_thunderbird_daemon_config(app: Application, secur: Signer) -> str:
    """Return the Figure 6 ``thunderbird.conf`` supplied by the third party Secur."""
    requirements = THUNDERBIRD_REQUIREMENTS
    req_sig = secur.sign([app.exe_hash, app.name, requirements])
    return f"""\
@app {app.path} {{
name : {app.name}
type : email-client
rule-maker : Secur
requirements : {requirements}
req-sig : {req_sig}
}}
"""


def figure7_secur_control(secur_pubkey_hex: str) -> dict[str, str]:
    """Return the Figure 7 ``30-secur.control`` plus a default-deny header."""
    header = """\
# default deny
block all
"""
    secur = f"""\
dict <pubkeys> {{ Secur : {secur_pubkey_hex} }}

# Allow users to run any applications approved
# by Secur and following rules Secur provides
pass from any \\
    with eq(@src[rule-maker], Secur) \\
    with allowed(@src[requirements]) \\
    with verify(@src[req-sig], \\
        @pubkeys[Secur], \\
        @src[exe-hash], \\
        @src[app-name], \\
        @src[requirements]) \\
    to any
"""
    return {
        "00-default.control": header,
        "30-secur.control": secur,
    }


# ---------------------------------------------------------------------------
# Figure 8: user and application-specific rules (Conficker / MS08-067)
# ---------------------------------------------------------------------------

FIGURE8_USER_RULES = """\
# default block everything
block all

# only allow "system" users in the LAN
pass from <lan> \\
    with eq(@src[userID], system) \\
    to <lan> \\
    with eq(@dst[userID], system) \\
    with eq(@dst[name], Server) \\
    with includes(@dst[os-patch], MS08-067)
"""


def figure8_control_files() -> dict[str, str]:
    """Return the Figure 8 ``10-user-rules.control`` plus the LAN table it references."""
    return {
        "05-tables.control": "table <lan> { 192.168.0.0/16 }\n",
        "10-user-rules.control": FIGURE8_USER_RULES,
    }
