// Wire codecs for the coordinator<->worker shard protocol: JSON over the
// same dependency-free HTTP plumbing the status surface uses. The payloads
// carry search state whose doubles must round-trip bit-exactly (a distance
// that gains an ULP in transit breaks the bit-identity guarantee), so they
// use synth/checkpoint's value codec — hex-float doubles, decimal-string
// u64s, and synth::BucketCheckpoint as the unit of exchange. Worker
// results, reassignment payloads and the checkpoint file are therefore one
// encoding; this header only re-exports the parts the protocol calls under
// dist::.
#pragma once

#include "synth/checkpoint.hpp"

namespace abg::dist {

using synth::bucket_checkpoint_from_json;
using synth::u64_from_json;
using synth::write_bucket_checkpoint;
using synth::write_u64;

}  // namespace abg::dist
