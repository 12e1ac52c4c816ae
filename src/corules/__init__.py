"""Globally interpretable Boolean rule sets (DNF) learned by column
generation, with rules a person provides blended in as soft constraints,
templates or hard constraints.

Modules: ``dataset`` (binarization), ``ruledsl`` (rule text and binding),
``colgen`` (training), ``solver`` (LP and binary MIP) and ``metrics``.
"""
