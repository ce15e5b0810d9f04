from .flagship import (
    mp_rollup_pipeline,
    profiles_pipeline,
    token_rollup_pipeline,
)
