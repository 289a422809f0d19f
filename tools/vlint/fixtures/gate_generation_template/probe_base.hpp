// Seeded gate-generation violations in a class-template server base, the
// two shapes a qualified-name test alone does not see:
//
// 1. ProbeBase::remove is a mutation-hook override defined in the class
//    body, so its name carries no `::`.  It is not annotated
//    V_GATED_MUTATION and returns success without note_name_write.
// 2. ProbeBase<Record>::create_object is defined out of class; its
//    qualifier ends in a template argument list.  It is not annotated
//    either and also returns success without note_name_write.
#pragma once

#include <map>
#include <string>

namespace v::servers {

template <class Record>
class ProbeBase : public naming::CsnhServer {
 protected:
  sim::Co<ReplyCode> remove(ipc::Process& self, ContextId ctx,
                            std::string_view leaf) override {
    records_.erase(std::string(leaf));
    co_return ReplyCode::kOk;
  }
  sim::Co<ReplyCode> create_object(ipc::Process& self, ContextId ctx,
                                   std::string_view leaf,
                                   std::uint16_t mode) override;

 private:
  std::map<std::string, Record, std::less<>> records_;
};

template <class Record>
sim::Co<ReplyCode> ProbeBase<Record>::create_object(ipc::Process& self,
                                                    ContextId ctx,
                                                    std::string_view leaf,
                                                    std::uint16_t mode) {
  records_.emplace(std::string(leaf), Record{});
  co_return ReplyCode::kOk;
}

}  // namespace v::servers
