"""The service benchmark: four HTTP workloads over a seeded persona corpus.

Run ``python -m bench run --seed 1`` from the checkout root; see
``bench/README.md``.
"""
