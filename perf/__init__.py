"""Wall-clock benchmark of the punt stack (see ``perf/README.md``).

Everything the benchmark needs lives in this directory; it drives the
simulator only through the public ``IdentPPNetwork`` /
``IdentPPClusterNetwork`` API and changes no file under ``src/``.
"""
