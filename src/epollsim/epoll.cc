#include "epollsim/epoll.h"

#include "common/logging.h"

namespace eo::epollsim {

int EpollTable::create() {
  instances_.push_back(std::make_unique<EpollInstance>());
  return static_cast<int>(instances_.size()) - 1;
}

EpollInstance& EpollTable::get(int epfd) {
  EO_CHECK(epfd >= 0 && epfd < static_cast<int>(instances_.size()))
      << "bad epoll fd " << epfd;
  return *instances_[static_cast<size_t>(epfd)];
}

}  // namespace eo::epollsim
